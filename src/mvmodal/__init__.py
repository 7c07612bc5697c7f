"""Workbench for many-valued coalgebraic modal logic over finite residuated
lattices: models and evaluators, the (pseudo-)terminal sequence, finite-model
decision procedures, and mechanical checkers for the meta-theory."""

from .algebra import ResiduatedLattice, builtin_lattice, load_algebra, validate_lattice
from .decision import Verdict, consequence, lemma2_model, satisfiable, validity
from .functors import (Distribution, Functor, FuzzyHom, Neighborhood, Powerset,
                       Selection, ValuationSet, check_functor_laws, make_functor,
                       push_delta)
from .lifting import (LiftingRegistry, PredicateLifting, apply_lifting,
                      check_alpha_preservation, check_naturality,
                      standard_liftings)
from .parsing import ParseError, parse_formula, tokenize
from .proofkit import (Consecution, DerivationNode, ModalAxiomSet,
                       check_derivation, check_step_n_soundness, decide_ax_a,
                       load_axiom_set, load_derivation,
                       one_step_soundness_report)
from .report import BudgetError, InputError, ValidationReport, Violation
from .semantics import (StageTower, StepEvaluator, TModel, check_lemma1,
                        check_stage_coherence, check_truth_lemma, eval_model,
                        eval_step, load_model, model_consequence, model_to_dict,
                        sigma_k, sigma_states)
from .session import Session, algebra_from_spec
from .syntax import (Bin, Const, Formula, Modal, Prop, pretty, propositions_of,
                     rank, subformulas, substitute)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "Bin", "Consecution", "Const", "DerivationNode",
    "Distribution", "Formula", "Functor", "FuzzyHom",
    "InputError", "LiftingRegistry", "Modal", "ModalAxiomSet",
    "Neighborhood", "ParseError", "Powerset", "PredicateLifting", "Prop",
    "ResiduatedLattice", "Selection", "Session", "StageTower",
    "StepEvaluator", "TModel", "ValidationReport", "ValuationSet", "Verdict",
    "Violation", "algebra_from_spec", "apply_lifting",
    "builtin_lattice", "check_alpha_preservation", "check_derivation",
    "check_functor_laws", "check_lemma1", "check_naturality",
    "check_stage_coherence", "check_step_n_soundness", "check_truth_lemma",
    "consequence", "decide_ax_a", "eval_model", "eval_step",
    "lemma2_model", "load_algebra", "load_axiom_set",
    "load_derivation", "load_model", "make_functor", "model_consequence",
    "model_to_dict", "one_step_soundness_report", "parse_formula", "pretty",
    "propositions_of", "push_delta", "rank", "satisfiable", "sigma_k",
    "sigma_states", "standard_liftings", "subformulas",
    "substitute", "tokenize", "validate_lattice", "validity",
]
