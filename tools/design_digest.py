"""One md5 over every design_sweep op of a source checkout.

    python3 tools/design_digest.py [ROOT]

ROOT is a checkout root with ``src/funnelsim`` and ``bench/`` (default: the
checkout this file is in).  Every variant of the bench's design_sweep pool
goes through the calls of its op: load_config, build_system,
build_reference, build_design, then check_design and design_report.  The
digest covers, per variant in pool order, the outcome (``feasible`` or the
typed error's class name and message), the bytes and shapes of the normal
form when one is built, and the margins and report of a feasible design.
Two checkouts print the same digest exactly when their synthesis is
byte-identical on the pool.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path


def _normal_form_bytes(nf):
    parts = [repr((nf.r, nf.m, nf.internal_dim, nf.sign)).encode()]
    for a in (*nf.R, nf.S, nf.Gamma, nf.Q, nf.P, nf.chain0, nf.eta0,
              nf.transform):
        parts.append(repr(a.shape).encode() + a.tobytes())
    return b"".join(parts)


def digest(root):
    """(md5 hex digest, outcome counts, normal forms built) for ROOT."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from funnelsim import FunnelSimError, check_design, cli, design_report

    variants = workloads._read("design_sweep")["variants"]
    md5, counts, forms = hashlib.md5(), {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design_sweep.json"
        for v, entry in enumerate(variants):
            cfg = workloads.design_config(workloads.design_draw(v),
                                          entry["dropout"], entry["window"])
            path.write_text(json.dumps(cfg))
            md5.update(f"variant {v}\n".encode())
            try:
                cfg = cli.load_config(path)
                nf = cli.build_system(cfg)
                forms += 1
                md5.update(_normal_form_bytes(nf))
                y_ref = cli.build_reference(cfg)
                dp = cli.build_design(cfg, nf, y_ref)
            except FunnelSimError as exc:
                outcome = type(exc).__name__
                md5.update(f"{outcome}: {exc}\n".encode())
            else:
                outcome = "feasible"
                md5.update(repr(check_design(dp)).encode())
                md5.update(design_report(dp).encode())
            counts[outcome] = counts.get(outcome, 0) + 1
    return md5.hexdigest(), counts, forms


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else Path(__file__).resolve().parent.parent
    hexdigest, counts, forms = digest(root)
    ops = sum(counts.values())
    print(f"{ops} ops, {forms} normal forms, "
          + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    print(hexdigest)


if __name__ == "__main__":
    main()
