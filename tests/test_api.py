"""The public surface: the signature of every function the package exports.

A changed entry means an option was added, removed or renamed, so it shows
in review.  Classes are left out, since the signature ``inspect`` gives an
``Enum`` differs between Python versions.
"""

import inspect

import domchrom as dc

SIGNATURES = {
    "audit_specs": (
        "(specs: 'list[FamilySpec]', *, solver_cap: 'int' = 18, "
        "oracle_cap: 'int' = 10, budget_ms: 'int | None' = None, "
        "backend: 'str | None' = None) -> 'AuditReport'"
    ),
    "available_backends": "() -> 'tuple[str, ...]'",
    "bound_clique_star": "(m: 'int', chi_h: 'int') -> 'Prediction'",
    "bound_point_attach": "(parts: 'list[int]') -> 'Prediction'",
    "bound_r_glue": "(chi1: 'int', chi2: 'int', r: 'int') -> 'Prediction'",
    "cartesian_product": "(g: 'Graph', h: 'Graph') -> 'Graph'",
    "chain_cut_vertices": "(fs: 'FamilySpec') -> 'tuple[int, ...]'",
    "chromatic_number": "(g: 'Graph') -> 'InvariantResult'",
    "circulant_reduce": "(n: 'int', a: 'int', b: 'int') -> 'CirculantReduction'",
    "clique_with_attachments": "(m: 'int', h: 'Graph', attach_at: 'int') -> 'Graph'",
    "components": "(g: 'Graph') -> 'list[tuple[Graph, tuple[int, ...]]]'",
    "delete_edges": "(g: 'Graph', edges: 'Iterable[Sequence[int]]') -> 'Graph'",
    "delete_vertices": "(g: 'Graph', vertices: 'Iterable[int]') -> 'Graph'",
    "diameter": "(g: 'Graph') -> 'int | float'",
    "disjoint_union": "(g: 'Graph', h: 'Graph') -> 'Graph'",
    "dom_bondage": (
        "(g: 'Graph', *, budget_ms: 'int | None' = None, "
        "backend: 'str | None' = None) -> 'PerturbationResult'"
    ),
    "dom_chromatic": (
        "(g: 'Graph', *, backend: 'str | None' = None) -> 'tuple[int, DomColoring]'"
    ),
    "dom_chromatic_oracle": "(g: 'Graph', *, cap: 'int' = 10) -> 'int'",
    "dom_stability": (
        "(g: 'Graph', *, budget_ms: 'int | None' = None, "
        "backend: 'str | None' = None) -> 'PerturbationResult'"
    ),
    "domination_number": "(g: 'Graph') -> 'InvariantResult'",
    "erratum_for": "(fs: 'FamilySpec') -> 'Erratum | None'",
    "exists_k": "(g: 'Graph', k: 'int') -> 'DomColoring | None'",
    "format_edge_list": "(g: 'Graph') -> 'str'",
    "generate": "(fs: 'FamilySpec') -> 'Graph'",
    "make_graph": "(n: 'int', edges: 'Iterable[Sequence[int]]' = ()) -> 'Graph'",
    "parse_dimacs": "(text: 'str') -> 'Graph'",
    "parse_edge_list": "(text: 'str') -> 'Graph'",
    "parse_family": "(text: 'str') -> 'FamilySpec'",
    "parse_family_range": "(text: 'str') -> 'list[FamilySpec]'",
    "point_attach": "(g: 'Graph', h: 'Graph', u: 'int', v: 'int') -> 'Graph'",
    "predict_bondage": "(fs: 'FamilySpec') -> 'Prediction'",
    "predict_dom_chromatic": "(fs: 'FamilySpec') -> 'Prediction'",
    "predict_gamma_t_circulant13": "(n: 'int') -> 'Prediction'",
    "predict_stability": "(fs: 'FamilySpec') -> 'Prediction'",
    "r_glue": (
        "(g: 'Graph', h: 'Graph', clique_g: 'Sequence[int]', "
        "clique_h: 'Sequence[int]') -> 'Graph'"
    ),
    "report_to_dict": "(report: 'AuditReport') -> 'dict'",
    "sandwich": "(g: 'Graph') -> 'Prediction'",
    "spec": "(family: 'Family | str', *params: 'int') -> 'FamilySpec'",
    "total_domination_number": "(g: 'Graph', *, at_most: 'int' = 0) -> 'InvariantResult'",
    "verify": "(g: 'Graph', coloring: 'DomColoring') -> 'Violation | None'",
}


def test_public_function_signatures_are_pinned():
    exported = {name: getattr(dc, name) for name in dc.__all__}
    signatures = {
        name: str(inspect.signature(fn))
        for name, fn in exported.items()
        if inspect.isfunction(fn)
    }
    assert signatures == SIGNATURES
