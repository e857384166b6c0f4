"""Command-line surface: tables, twist families, and catalog selftests.

Every subcommand reads its input from one of ``--pd FILE`` (a PD-code JSON
file), ``--braid STR``, ``--catalog NAME``, or ``--template FILE``; template
inputs take ``--slope`` to close into a diagram.  Output is deterministic:
the same invocation prints byte-identical text, and all JSON carries
``"format": "kf-1"``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

import click

from .catalog import (
    CatalogEntry,
    CatalogError,
    get_entry,
    load_catalog,
    resolve_template,
)
from .diagram import DiagramError, PlanarDiagram, braid_closure, mirror, parse_braid, parse_pd
from .kappa import (
    StepError,
    TransitionError,
    compute_family,
    compute_kappa,
    classify_steps,
    find_transition,
    kappa_for_template,
    kappa_width,
    KappaRun,
    KappaTable,
)
from .khovanov import BudgetError, DEFAULT_MAX_GENERATORS, KhTable, kh_table, width
from .lspace import (
    alexander,
    determinant,
    formal_semigroup,
    is_actual_semigroup,
    is_lspace_form,
    semigroup_series_elements,
)
from .tangles import (
    TangleTemplate,
    fill,
    mirror_template,
    parse_slope,
    slope_text,
    template_from_json,
    validate_template,
)

_ERRORS = (
    BudgetError,
    CatalogError,
    DiagramError,
    StepError,
    TransitionError,
    ValueError,
    ArithmeticError,
    OSError,
)


def _fail(exc: Exception) -> click.ClickException:
    return click.ClickException(str(exc))


def input_options(with_slope: bool = True):
    def wrap(f):
        f = click.option("--pd", "pd_file", metavar="FILE", help="PD-code JSON file.")(f)
        f = click.option("--braid", metavar="STR", help="braid word, e.g. '1,-2,1,-2'.")(f)
        f = click.option("--catalog", "catalog_name", metavar="NAME", help="catalog entry.")(f)
        f = click.option("--template", "template_file", metavar="FILE", help="template JSON file.")(f)
        if with_slope:
            f = click.option("--slope", metavar="P/Q", help="filling slope for template inputs.")(f)
        f = click.option("--mirror", "mirror_flag", is_flag=True, help="mirror the input.")(f)
        return f

    return wrap


def _read_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise click.ClickException(f"no such file: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}: invalid JSON ({exc})")


def _resolve_input(
    pd_file: Optional[str],
    braid: Optional[str],
    catalog_name: Optional[str],
    template_file: Optional[str],
    slope: Optional[str] = None,
    mirror_flag: bool = False,
    want: str = "diagram",
):
    """Turn the input flags into a diagram or a template.

    Returns ``("diagram", PlanarDiagram)`` or ``("template", TangleTemplate)``;
    a template plus ``--slope`` closes into a diagram.
    """
    given = [x for x in (pd_file, braid, catalog_name, template_file) if x is not None]
    if len(given) != 1:
        raise click.UsageError("give exactly one of --pd / --braid / --catalog / --template")
    template: Optional[TangleTemplate] = None
    diagram: Optional[PlanarDiagram] = None
    try:
        if pd_file is not None:
            diagram = parse_pd(_read_json(pd_file))
        elif braid is not None:
            diagram = braid_closure(parse_braid(braid))
        elif template_file is not None:
            template = template_from_json(_read_json(template_file))
        else:
            catalog = load_catalog()
            entry = get_entry(catalog_name, catalog)
            if want == "template" or slope is not None or not entry.has_diagram():
                template = resolve_template(entry, catalog)
            else:
                diagram = entry.diagram()
    except _ERRORS as exc:
        raise _fail(exc)

    if template is not None and mirror_flag:
        template = mirror_template(template)
    if diagram is not None and mirror_flag:
        diagram = mirror(diagram)

    if want == "template":
        if template is None:
            raise click.UsageError("this command needs a template input")
        return "template", template
    if template is not None:
        if slope is None:
            raise click.UsageError("template input needs --slope to close into a diagram")
        try:
            return "diagram", fill(template, parse_slope(slope))
        except _ERRORS as exc:
            raise _fail(exc)
    return "diagram", diagram


def _emit(fmt: str, text_form: str, json_dict: dict, latex_form: Optional[str] = None) -> None:
    if fmt == "json":
        click.echo(json.dumps(json_dict, indent=2, sort_keys=True))
    elif fmt == "latex":
        click.echo(latex_form if latex_form is not None else text_form)
    else:
        click.echo(text_form)


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "latex"]),
    default="text",
    show_default=True,
)
threads_option = click.option(
    "--threads",
    type=int,
    default=1,
    show_default=True,
    help="accepted for compatibility and ignored: every computation runs in one process.",
)
budget_option = click.option(
    "--max-generators",
    type=int,
    default=DEFAULT_MAX_GENERATORS,
    show_default=True,
    help="abort a computation whose intermediate complex outgrows this.",
)


@click.group()
@click.version_option(package_name="knotfill")
def main() -> None:
    """Khovanov homology of tangle filling families and related invariants."""


@main.command("kh")
@input_options()
@format_option
@budget_option
@threads_option
def cmd_kh(pd_file, braid, catalog_name, template_file, slope, mirror_flag, fmt, max_generators, threads):
    """Reduced Khovanov table of a diagram (GF(2) coefficients)."""
    _, d = _resolve_input(pd_file, braid, catalog_name, template_file, slope, mirror_flag)
    try:
        table = kh_table(d, max_generators=max_generators)
    except _ERRORS as exc:
        raise _fail(exc)
    _emit(fmt, table.to_text(), table.to_json_dict(), table.to_latex())


@main.command("width")
@input_options()
@budget_option
@format_option
def cmd_width(pd_file, braid, catalog_name, template_file, slope, mirror_flag, max_generators, fmt):
    """Homological width of the reduced Khovanov table."""
    _, d = _resolve_input(pd_file, braid, catalog_name, template_file, slope, mirror_flag)
    try:
        w = width(kh_table(d, max_generators=max_generators))
    except _ERRORS as exc:
        raise _fail(exc)
    _emit(fmt, str(w), {"format": "kf-1", "width": w})


@main.command("alexander")
@input_options()
@format_option
def cmd_alexander(pd_file, braid, catalog_name, template_file, slope, mirror_flag, fmt):
    """Alexander polynomial of a knot, with determinant and genus bound."""
    _, d = _resolve_input(pd_file, braid, catalog_name, template_file, slope, mirror_flag)
    try:
        p = alexander(d)
    except _ERRORS as exc:
        raise _fail(exc)
    text = "\n".join(
        [
            f"alexander = {p}",
            f"determinant = {p.evaluate_abs(-1)}",
            f"genus bound = {p.genus_bound}",
        ]
    )
    _emit(
        fmt,
        text,
        {
            "format": "kf-1",
            "alexander": p.to_json_dict(),
            "determinant": p.evaluate_abs(-1),
            "genus_bound": p.genus_bound,
        },
    )


@main.command("det")
@input_options()
@format_option
def cmd_det(pd_file, braid, catalog_name, template_file, slope, mirror_flag, fmt):
    """Determinant of a diagram (checkerboard form over the integers)."""
    _, d = _resolve_input(pd_file, braid, catalog_name, template_file, slope, mirror_flag)
    try:
        value = determinant(d)
    except _ERRORS as exc:
        raise _fail(exc)
    _emit(fmt, str(value), {"format": "kf-1", "determinant": value})


@main.command("semigroup")
@input_options()
@format_option
@click.option("--up-to", type=int, default=None, help="list elements below this bound.")
def cmd_semigroup(pd_file, braid, catalog_name, template_file, slope, mirror_flag, fmt, up_to):
    """Formal semigroup of a knot whose Alexander polynomial allows one."""
    _, d = _resolve_input(pd_file, braid, catalog_name, template_file, slope, mirror_flag)
    try:
        p = alexander(d)
    except _ERRORS as exc:
        raise _fail(exc)
    form = is_lspace_form(p)
    if not form:
        raise click.ClickException(
            f"alexander = {p}: coefficients are not alternating +-1, "
            "so no formal semigroup is defined"
        )
    bound = up_to if up_to is not None else 2 * p.genus_bound + 2
    try:
        s = formal_semigroup(p)
        elements = semigroup_series_elements(p, bound)
        actual = is_actual_semigroup(s)
    except _ERRORS as exc:
        raise _fail(exc)
    text = "\n".join(
        [
            f"alexander = {p}",
            "lspace form = yes",
            f"elements <= {bound}: {' '.join(map(str, elements))}",
            f"actual semigroup = {'yes' if actual else 'no'}",
        ]
    )
    _emit(
        fmt,
        text,
        {
            "format": "kf-1",
            "alexander": p.to_json_dict(),
            "lspace_form": True,
            "bound": bound,
            "elements": elements,
            "actual_semigroup": actual,
        },
    )


def _parse_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise click.UsageError(f"--range needs LO..HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"--range needs integer bounds, got {text!r}")


@main.command("kappa")
@input_options(with_slope=False)
@click.option("--range", "n_range", metavar="LO..HI", help="explicit filling window.")
@format_option
@threads_option
@budget_option
def cmd_kappa(pd_file, braid, catalog_name, template_file, mirror_flag, n_range, fmt, threads, max_generators):
    """Stable image of a twist family: transition slope and kappa table."""
    hint = 0
    if catalog_name is not None:
        try:
            entry = get_entry(catalog_name)
        except CatalogError as exc:
            raise _fail(exc)
        if entry.transition_hint is not None:
            hint = entry.transition_hint
    _, template = _resolve_input(
        pd_file, braid, catalog_name, template_file, mirror_flag=mirror_flag, want="template"
    )
    try:
        if n_range is not None:
            lo, hi = _parse_range(n_range)
            family = compute_family(template, (lo, hi), max_generators=max_generators)
            profile = find_transition(family)
            table = compute_kappa(family, profile)
            run = KappaRun(family, profile, table)
        else:
            run = kappa_for_template(template, hint=hint, max_generators=max_generators)
    except _ERRORS as exc:
        raise _fail(exc)

    widths = run.family.widths()
    lines = [
        f"template = {template.name}",
        f"transition N = {run.profile.N}"
        + (f"   (bumps at {', '.join(map(str, run.profile.bumps))})" if run.profile.bumps else ""),
        f"kappa dimension = {run.table.total_dim}",
        f"kappa width = {kappa_width(run.table)}",
        "",
        run.table.to_text(),
        "",
        "fill widths: " + "  ".join(f"{n}:{widths[n]}" for n in sorted(widths)),
    ]
    json_dict = {
        "format": "kf-1",
        "template": template.name,
        "N": run.profile.N,
        "kappa": run.table.to_json_dict(),
        "widths": {str(n): widths[n] for n in sorted(widths)},
    }
    _emit(fmt, "\n".join(lines), json_dict, run.table.to_latex())


@main.command("validate")
@input_options(with_slope=False)
@format_option
def cmd_validate(pd_file, braid, catalog_name, template_file, mirror_flag, fmt):
    """Check a template's filling conventions; nonzero exit on failure."""
    _, template = _resolve_input(
        pd_file, braid, catalog_name, template_file, mirror_flag=mirror_flag, want="template"
    )
    try:
        report = validate_template(template)
    except _ERRORS as exc:
        raise _fail(exc)
    _emit(fmt, str(report), report.to_json_dict())
    if not report.ok:
        raise SystemExit(1)


@main.command("selftest")
@click.option("--deep", is_flag=True, help="also run the slow family fixtures.")
@threads_option
@budget_option
def cmd_selftest(deep, threads, max_generators):
    """Recompute every catalog fixture and compare against the pinned value."""
    try:
        catalog = load_catalog()
    except _ERRORS as exc:
        raise _fail(exc)
    failures = 0
    checks = 0
    for name in sorted(catalog):
        entry = catalog[name]
        cache: Dict[str, object] = {}
        for fixture in entry.fixtures:
            if fixture.deep and not deep:
                continue
            checks += 1
            try:
                got = _fixture_value(entry, fixture.quantity, catalog, cache, max_generators)
            except _ERRORS as exc:
                got = f"error: {exc}"
            ok = got == fixture.value
            failures += 0 if ok else 1
            status = "ok  " if ok else "FAIL"
            detail = "" if ok else f"   got {got!r}, want {fixture.value!r}"
            click.echo(f"{status} {name}.{fixture.quantity}{detail}")
    click.echo(f"selftest: {checks} checks, {failures} failures")
    if failures:
        raise SystemExit(1)


def _fixture_value(
    entry: CatalogEntry,
    quantity: str,
    catalog: Dict[str, CatalogEntry],
    cache: Dict[str, object],
    max_generators: int,
):
    def diagram() -> PlanarDiagram:
        if "diagram" not in cache:
            cache["diagram"] = entry.diagram()
        return cache["diagram"]

    def table() -> KhTable:
        if "kh" not in cache:
            cache["kh"] = kh_table(diagram(), max_generators=max_generators)
        return cache["kh"]

    def kappa_run() -> KappaRun:
        if "kappa" not in cache:
            template = resolve_template(entry, catalog)
            cache["kappa"] = kappa_for_template(
                template,
                hint=entry.transition_hint or 0,
                max_generators=max_generators,
            )
        return cache["kappa"]

    if quantity == "determinant":
        return determinant(diagram())
    if quantity == "components":
        return diagram().n_components
    if quantity == "kh_table":
        return [[h, q, v] for (h, q), v in sorted(table().entries.items())]
    if quantity == "width":
        return width(table())
    if quantity == "lspace_form":
        return is_lspace_form(alexander(diagram()))
    if quantity == "actual_semigroup":
        return is_actual_semigroup(formal_semigroup(alexander(diagram())))
    if quantity == "validate":
        return validate_template(resolve_template(entry, catalog)).ok
    if quantity == "transition":
        return kappa_run().profile.N
    if quantity == "kappa_table":
        return [[h, q, v] for (h, q), v in sorted(kappa_run().table.entries.items())]
    if quantity == "kappa_total_dim":
        return kappa_run().table.total_dim
    raise CatalogError(f"unknown fixture quantity {quantity!r}")


if __name__ == "__main__":
    main()
