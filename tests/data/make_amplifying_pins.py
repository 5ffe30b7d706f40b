#!/usr/bin/env python3
"""Write ``pins/amplifying_pins.json``: 60-digit V, v_k and gradients of amplifying chains.

Each pin is computed in mpmath at ``DPS`` digits from the oscillators of its
spec as ``qcascade.cli.load_spec`` reads them, never from a float64 result:

- A and B of the series connection, A_jj = 2 theta_j (R_j + M_j^T J M_j),
  A_jl = 4 theta_j M_j^T J M_l below the diagonal and B_j = 2 theta_j M_j^T;
- P from A P + P A^T + B B^T = 0 by block forward substitution, block (j, k),
  j >= k, in column order k and then row order j, each from its Kronecker
  system; the Gramian Q from A^T Q + Q A + P^{-1} = 0 by the same substitution
  on the block-reversed transpose of A, which is block lower triangular;
- V = 2 sum ln diag L and v_k = 2 sum ln diag L_kk of L = ``mp.cholesky(P)``;
- the gradients by the chain rule: dV = 2 <dA, Q P> + 2 <dB, Q B>, with
  dA = 2 Theta (dR + W o (Y - Y^T)), Y = dM^T J M, W 1 on the diagonal blocks,
  2 below them and 0 above, and dB = 2 Theta dM^T. So rho_k = -4 Sym(theta_k
  (QP)_kk) and mu = -(J M K^T + 4 B^T Q Theta) with K = W o G - (W o G)^T,
  G = -4 Theta Q P; mu_k are its columns of oscillator k.

The chains are ``perfbench/specgen.py`` tasks of the ``long_chain`` and
``mc_check`` workloads: seed-1 ``amplifying8`` #0-#3, ``amplifying16`` #0-#3
and ``mc6`` #3, and five chains whose ``gradients`` verdict moved when the
second gradient route became one solve on the structured Schur factor:
seed-2 ``amplifying8`` #3 and ``amplifying16`` #1, seed-3 ``amplifying8`` #0,
and seed-5 and seed-8 ``amplifying8`` #1. Each entry keeps its spec, so the
tests need neither perfbench nor mpmath. To check that the file follows
this rule, rerun the script and see that git reports no change:

    python3 tests/data/make_amplifying_pins.py
    git diff --exit-code tests/data/pins/

Given spec paths, the script writes nothing. It prints, per spec, the exit
code of ``gradients``, its route gap and its true error, the largest
entrywise distance of its rho and mu from the pins, beside the bound of the
gap rule, max(1, max |rho, mu|) x 1e-9:

    python3 tests/data/make_amplifying_pins.py spec.json [spec.json ...]
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent.parent / "perfbench")]

from qcascade.cli import build_cascade, load_spec, main  # noqa: E402
from qcascade.linalg import RESIDUAL_TOL, block_slices  # noqa: E402

DPS = 60
OUT = HERE / "pins" / "amplifying_pins.json"
#: (seed, label, index, n_osc) of every pinned chain; all have m = 2 and the generic sampler
CHAINS = (
    *((1, "amplifying8", i, 8) for i in range(4)),
    *((1, "amplifying16", i, 16) for i in range(4)),
    (1, "mc6", 3, 6),
    (2, "amplifying8", 3, 8),
    (2, "amplifying16", 1, 16),
    (3, "amplifying8", 0, 8),
    (5, "amplifying8", 1, 8),
    (8, "amplifying8", 1, 8),
)


def _block_diag(blocks: list) -> mp.matrix:
    n = sum(x.rows for x in blocks)
    out, off = mp.zeros(n, n), 0
    for x in blocks:
        out[off : off + x.rows, off : off + x.rows] = x
        off += x.rows
    return out


def _sylvester(alpha: mp.matrix, beta: mp.matrix, f: mp.matrix) -> mp.matrix:
    """X with alpha X + X beta^T + f = 0, from (I (x) alpha + beta (x) I) vec X = -vec f, column-major."""
    r, c = alpha.rows, beta.rows
    op = mp.zeros(r * c, r * c)
    for i in range(r * c):
        for j in range(r * c):
            op[i, j] = (alpha[i % r, j % r] if i // r == j // r else 0) + (
                beta[i // r, j // r] if i % r == j % r else 0
            )
    x = mp.lu_solve(op, -mp.matrix([f[i % r, i // r] for i in range(r * c)]))
    return mp.matrix([[x[i + r * j] for j in range(c)] for i in range(r)])


def block_lyapunov(a: mp.matrix, q: mp.matrix, dims: list[int]) -> mp.matrix:
    """X with A X + X A^T + Q = 0 for a block lower triangular A and a symmetric Q,
    by block forward substitution."""
    blocks = block_slices(dims)

    def blk(x, j, k):
        return x[blocks[j].start : blocks[j].stop, blocks[k].start : blocks[k].stop]

    x = {}
    for k in range(len(dims)):
        for j in range(k, len(dims)):
            f = blk(q, j, k)
            for i in range(j):
                f += blk(a, j, i) * (x[i, k] if i >= k else x[k, i].T)
            for i in range(k):
                f += x[j, i] * blk(a, k, i).T
            x[j, k] = _sylvester(blk(a, j, j), blk(a, k, k), f)
    out = mp.zeros(len(q), len(q))
    for (j, k), xjk in x.items():
        out[blocks[j], blocks[k]] = xjk
        out[blocks[k], blocks[j]] = xjk.T
    return out


def pins(spec: Path) -> dict:
    """V, v_k, rho and mu of the cascade of ``spec`` at ``DPS`` digits, rounded to float."""
    cascade = build_cascade(load_spec(spec))
    dims, n = list(cascade.dims), cascade.n
    with mp.workdps(DPS):
        jm = mp.matrix(cascade.j_ito.tolist())
        theta = [mp.matrix(p.theta.tolist()) for p in cascade.params]
        r = [mp.matrix(p.r_energy.tolist()) for p in cascade.params]
        m = [mp.matrix(p.m_coupling.tolist()) for p in cascade.params]
        a, b = mp.zeros(n, n), mp.zeros(n, cascade.m)
        for j, rj in enumerate(cascade.blocks):
            b[rj, :] = 2 * theta[j] * m[j].T
            a[rj, rj] = 2 * theta[j] * (r[j] + m[j].T * jm * m[j])
            for l, rl in enumerate(cascade.blocks[:j]):
                a[rj, rl] = 4 * theta[j] * m[j].T * jm * m[l]
        p = block_lyapunov(a, b * b.T, dims)
        chol = mp.cholesky(p)
        log_diag = [2 * mp.log(chol[i, i]) for i in range(n)]
        # the Gramian on the reversed block order, where A^T is block lower triangular
        order = [i for blk in reversed(cascade.blocks) for i in range(blk.start, blk.stop)]
        p_inv = mp.inverse(p)
        a_rev = mp.matrix([[a[j, i] for j in order] for i in order])
        q_rev = block_lyapunov(a_rev, mp.matrix([[p_inv[i, j] for j in order] for i in order]), dims[::-1])
        q = mp.zeros(n, n)
        for s, i in enumerate(order):
            for t, j in enumerate(order):
                q[i, j] = q_rev[s, t]
        big_theta, m_all = _block_diag(theta), mp.matrix(cascade.m_coupling.tolist())
        g = -4 * big_theta * q * p
        block_id = [k for k, d in enumerate(dims) for _ in range(d)]
        w = [[(bi >= bj) + (bi > bj) for bj in block_id] for bi in block_id]
        wg = mp.matrix([[g[i, j] * w[i][j] for j in range(n)] for i in range(n)])
        mu = -(jm * m_all * (wg - wg.T).T + 4 * b.T * q * big_theta)
        rho = [(g[blk, blk] + g[blk, blk].T) / 2 for blk in cascade.blocks]
        return {
            "v_logdet": float(mp.fsum(log_diag)),
            "v_k": [float(mp.fsum(log_diag[blk])) for blk in cascade.blocks],
            "rho": [[[float(v) for v in row] for row in x.tolist()] for x in rho],
            "mu": [[[float(v) for v in row] for row in mu[:, blk].tolist()] for blk in cascade.blocks],
        }


def gradients_verdict(spec: Path) -> tuple[int, dict | None]:
    """Exit code of the ``gradients`` command on ``spec`` and its results, None without a report."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["gradients", str(spec), "--out", tmp])
        report = Path(tmp) / "report.json"
        return code, json.loads(report.read_text())["results"] if report.exists() else None


def true_error(results: dict, pin: dict) -> tuple[float, float]:
    """(largest entrywise distance of the results' rho and mu from the pin, the
    gap rule's scale max(1, max |rho, mu|) of the results)."""
    got = np.concatenate([np.ravel(results[key]) for key in ("rho", "mu")])
    want = np.concatenate([np.ravel(pin[key]) for key in ("rho", "mu")])
    return float(np.max(np.abs(got - want))), max(1.0, float(np.max(np.abs(got))))


def audit(specs: list[Path]) -> None:
    for spec in specs:
        code, results = gradients_verdict(spec)
        if results is None:
            print(f"{spec.name} exit {code} route_gap - error - bound -", flush=True)
            continue
        error, scale = true_error(results, pins(spec))
        print(f"{spec.name} exit {code} route_gap {results['route_gap']:.3e} "
              f"error {error:.3e} bound {RESIDUAL_TOL * scale:.3e}", flush=True)


def write() -> None:
    from specgen import cascade_spec

    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed, label, index, n_osc in CHAINS:
            raw = cascade_spec(seed, label, index, "generic", n_osc, 2)
            spec = Path(tmp) / f"{label}_s{seed}_{index}.json"
            spec.write_bytes(raw)
            entry = {"seed": seed, "label": label, "index": index, "spec": json.loads(raw)}
            entries.append({**entry, **pins(spec)})
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in entries)  # one line per chain
    OUT.write_text(f'{{"dps": {DPS}, "chains": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    if sys.argv[1:]:
        audit([Path(x) for x in sys.argv[1:]])
    else:
        write()
