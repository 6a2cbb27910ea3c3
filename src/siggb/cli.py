"""Command-line front end: parse ideal files, run engines, emit results.

Exit codes: 0 success, 1 parse error, 2 engine error, 3 oracle mismatch,
4 certificate failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .baseline import BaselineStats, buchberger_basis, ideal_equal
from .corpus import DEFAULT_PRIME, random_ideal
from .f5engine import (
    EngineError,
    EngineOptions,
    certify_all,
    incremental_basis,
    interreduce,
)
from .falsifier import scan_run
from .polyring import (
    DomainError,
    Field,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    QQ,
)
from .syzygy import CertificateError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ENGINE = 2
EXIT_MISMATCH = 3
EXIT_CERTIFICATE = 4

_ORDER_NAMES = {"drl": "degrevlex", "degrevlex": "degrevlex", "lex": "lex"}


@dataclass
class IdealSpec:
    """A parsed ideal file: ring context plus nonzero generators."""

    ring: PolyRing
    generators: list[Polynomial]

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ring.names


def parse_ideal(text: str) -> IdealSpec:
    """Parse the ideal file format.

    UTF-8 text, '#' comments, headers ``vars:``, ``order:`` (drl|lex),
    ``field:`` (q | gf <prime>), then one generator per line in the
    polynomial grammar.  ``vars:`` is required and must come before the
    generators; order defaults to drl, field to q.
    """
    names: tuple[str, ...] | None = None
    order: MonomialOrder | None = None
    field = None
    seen: set[str] = set()
    gens_src: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        header = None
        for h in ("vars", "order", "field"):
            if lowered.startswith(h + ":"):
                header = h
                break
        if header is not None:
            if header in seen:
                raise ParseError(f"duplicate header {header!r}", line=lineno)
            if gens_src:
                raise ParseError("headers must precede generators", line=lineno)
            seen.add(header)
            value = line.split(":", 1)[1].strip()
            if header == "vars":
                parts = [v.strip() for v in value.replace(",", " ").split()]
                if not parts:
                    raise ParseError("empty variable list", line=lineno)
                if len(set(parts)) != len(parts):
                    raise ParseError("duplicate variable names", line=lineno)
                for name in parts:
                    if not name.isidentifier():
                        raise ParseError(f"bad variable name {name!r}", line=lineno)
                names = tuple(parts)
            elif header == "order":
                kind = _ORDER_NAMES.get(value.lower())
                if kind is None:
                    raise ParseError(f"unknown order {value!r}", line=lineno)
                order = MonomialOrder(kind)
            else:
                v = value.lower().split()
                if v == ["q"]:
                    field = QQ
                elif len(v) == 2 and v[0] == "gf":
                    try:
                        field = Field(int(v[1]))
                    except DomainError as e:  # not prime, or too large to decide
                        raise ParseError(f"bad prime {v[1]!r}: {e}", line=lineno) from None
                    except ValueError:
                        raise ParseError(f"bad prime {v[1]!r}", line=lineno) from None
                else:
                    raise ParseError(f"unknown field {value!r}", line=lineno)
        else:
            gens_src.append((lineno, line))

    if names is None:
        raise ParseError("missing 'vars:' header", line=1)
    ring = PolyRing(names, field if field is not None else QQ,
                    order if order is not None else MonomialOrder("degrevlex"))
    if not gens_src:
        raise ParseError("no generators", line=1)
    gens = []
    for lineno, src in gens_src:
        try:
            p = ring.parse(src)
        except ParseError as e:
            raise ParseError(e.message, line=lineno, column=e.column) from None
        if p.is_zero:
            raise ParseError("zero generator", line=lineno)
        gens.append(p)
    return IdealSpec(ring, gens)


def _print_basis(header, basis, out):
    print(header, file=out)
    for p in basis:
        print(p, file=out)


def run(args, out=sys.stdout, err=sys.stderr) -> int:
    """Execute one CLI invocation; returns the exit status."""
    if args.engine == "gm" and (args.certify or args.improved_scan):
        flag = "--certify" if args.certify else "--improved-scan"
        print(f"error: {flag} requires the f5 engine", file=err)
        return EXIT_ENGINE
    try:
        if args.random:
            try:
                k, d, n = (int(x) for x in args.random.split(","))
            except ValueError:
                print("error: --random expects K,D,N", file=err)
                return EXIT_PARSE
            if min(k, d, n) < 1:
                print("error: --random expects K,D,N all at least 1", file=err)
                return EXIT_PARSE
            gens = random_ideal(k, d, n, seed=args.seed, p=DEFAULT_PRIME)
            spec = IdealSpec(gens[0].ring, gens)
        else:
            if args.file is None:
                print("error: an ideal file (or --random) is required", file=err)
                return EXIT_PARSE
            if args.file == "-":
                text = sys.stdin.read()
            else:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            spec = parse_ideal(text)
    except OSError as e:
        print(f"error: {e}", file=err)
        return EXIT_PARSE
    except (ParseError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=err)
        return EXIT_PARSE

    opts = EngineOptions(certify=args.certify, validate_witnesses=args.certify)
    f5_state = None
    f5_basis = None
    gm_basis = None
    gm_stats = BaselineStats()
    try:
        if args.engine in ("f5", "both"):
            f5_state, events = incremental_basis(spec.generators, opts=opts)
            if args.trace_criteria:
                for ev in events:
                    print(ev.render(f5_state), file=out)
            f5_basis = interreduce(f5_state)
        if args.engine in ("gm", "both"):
            gm_basis = buchberger_basis(spec.generators, stats=gm_stats)
        agree = args.engine != "both" or ideal_equal(f5_basis, gm_basis)
    except (EngineError, DomainError, RuntimeError) as e:
        # RuntimeError: reduced_basis found no autoreduction fixpoint
        print(f"engine error: {e}", file=err)
        return EXIT_ENGINE

    status = EXIT_OK
    if args.engine == "both":
        if agree:
            _print_basis("basis:", f5_basis, out)
        else:
            print("oracle mismatch: engines disagree", file=err)
            _print_basis("f5:", f5_basis, out)
            _print_basis("gm:", gm_basis, out)
            status = EXIT_MISMATCH
    else:
        _print_basis("basis:", f5_basis if args.engine == "f5" else gm_basis, out)

    if args.stats:
        print("stats:", file=out)
        if f5_state is not None:
            for line in f5_state.stats.lines():
                print(line, file=out)
            print(f"basis size: {f5_state.size}", file=out)
            print(f"reduced basis size: {len(f5_basis)}", file=out)
        if args.engine in ("gm", "both"):
            print("gm stats:", file=out)
            for line in gm_stats.lines():
                print(line, file=out)

    if args.certify:
        try:
            certs = certify_all(f5_state)
        except CertificateError as e:
            print(f"certificate failure: {e}", file=err)
            return EXIT_CERTIFICATE
        print("certificates:", file=out)
        print(f"certified rejections: {len(certs)}", file=out)
        for cert in certs:
            print(cert.render(f5_state), file=out)

    if args.improved_scan:
        report = scan_run(f5_state)
        for line in report.lines(f5_state):
            print(line, file=out)
        if not report.lemma_holds:
            print("engine error: improved-criterion scan found a violation", file=err)
            return EXIT_ENGINE

    return status


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="siggb",
        description="Signature-based Groebner basis engine with a Buchberger oracle.",
    )
    ap.add_argument("file", nargs="?", help="ideal file ('-' for stdin)")
    ap.add_argument("--engine", choices=("f5", "gm", "both"), default="f5")
    ap.add_argument("--trace-criteria", action="store_true",
                    help="print the criterion event trace")
    ap.add_argument("--certify", action="store_true",
                    help="track witnesses and emit a certificate per rejected pair")
    ap.add_argument("--stats", action="store_true", help="print run counters")
    ap.add_argument("--improved-scan", action="store_true",
                    help="report the relaxed-criterion shadow scan")
    ap.add_argument("--seed", type=int, default=0, help="seed for --random")
    ap.add_argument("--random", metavar="K,D,N",
                    help="generate a random ideal instead of reading a file")
    return ap


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    sys.exit(run(args))


if __name__ == "__main__":
    main()
