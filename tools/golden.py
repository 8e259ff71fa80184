"""Print a checkout's golden values, the numbers ``tests/test_golden.py``
recomputes.

    python3 tools/golden.py <checkout> > tests/golden_values.json

Imports ``sormamba`` from ``<checkout>/src`` and runs two of
``tools/bitcheck.py``'s value paths with one BLAS thread:

* the 32 small model variants (``bitcheck.variant_losses``): after one
  ``backward``, each variant's loss and, per parameter gradient, its sum of
  squares and its dot product with a seeded normal vector of its shape;
* the read paths (``bitcheck.read_path_values``): their best epochs, errors
  and validation losses, and each array's sum of squares.

The output has one entry per line, a label and its list of numbers, each
float written so that it reads back exactly. The test compares them at a
relative tolerance, not bit for bit: a hash would tie it to one CPU's BLAS
kernels, and a change of reduction order (<= 1e-14 so far) should pass
where a real change of the numbers fails. ``bitcheck`` stays the bit-level
comparison of two commits.

Writing the file again changes test data: do it only when the numbers are
meant to move, and state the largest relative move.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

DOT_SEED = 11


def _bitcheck():
    spec = importlib.util.spec_from_file_location(
        "bitcheck", Path(__file__).with_name("bitcheck.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def values() -> dict[str, list]:
    """Label -> numbers, from the ``sormamba`` that imports."""
    import numpy as np

    from sormamba import autodiff

    bitcheck = _bitcheck()
    out: dict[str, list] = {}
    for tag, model, loss in bitcheck.variant_losses():
        autodiff.backward(loss)
        out[f"{tag} loss"] = [float(loss.data)]
        for name, t in model.param_items():
            if t.grad is not None:
                g = t.grad
                v = np.random.default_rng(DOT_SEED).normal(size=g.shape)
                out[f"{tag} grad {name}"] = [float(np.sum(g * g)), float(np.sum(g * v))]
    for label, items in bitcheck.read_path_values():
        numbers = out.setdefault(label, [])
        for v in items:
            if isinstance(v, tuple):  # (name, array)
                v = v[1]
            numbers.append(float(np.sum(v * v)) if isinstance(v, np.ndarray) else v)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    sys.path.insert(0, str(src))
    import sormamba

    if not Path(sormamba.__file__).resolve().is_relative_to(src):
        sys.exit(f"golden: imported {sormamba.__file__}, not from {src}")
    lines = [f"{json.dumps(label)}: {json.dumps(v)}" for label, v in values().items()]
    print("{\n" + ",\n".join(lines) + "\n}")
    return 0


if __name__ == "__main__":
    # before numpy is first imported, which is when OpenBLAS reads them
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
