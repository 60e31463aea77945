#!/usr/bin/env python3
"""Empirical minimal coupling strength against the closed-form threshold.

Sweeps c for the pinned symmetric scenario and prints, per point, the global
condition margin and the simulated final pin ratio. The closed-form c* from
the margin formula should separate the converging points from the rest;
below it the condition is silent and the run may wander or blow up.

All points go through one ``run_sweep`` call, which integrates them as one
batch; the table is read back from the sweep CSV it writes under --out.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
from pathlib import Path

import pinnet as pn
from pinnet.cli import run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=6.0)
    ap.add_argument("--hi", type=float, default=14.0)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--tmax", type=float, default=10.0)
    ap.add_argument("--out", default="sweep_out")
    args = ap.parse_args()

    cfg = dataclasses.replace(pn.parse_scenario("fig4-sym-pinned"), t_max=args.tmax)
    _, spectral = pn.proposition1_holds(pn.pinned_matrix(cfg.coupling, cfg.pin))
    c_star = pn.min_coupling_strength(cfg.certificate, spectral.lambda1)
    print(f"closed-form minimal strength c* = {c_star:.4f}\n")

    with contextlib.redirect_stdout(io.StringIO()):
        run_sweep(cfg, f"c={args.lo!r}:{args.hi!r}:{args.points}", args.out)
    with open(Path(args.out) / f"{cfg.name}_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))

    print(f"{'c':>8} {'margin':>12} {'condition':<10} {'pin(T)':>12} {'diverged':<8}")
    for row in rows:
        pin = float(row["final_pin_ratio"])
        pin_s = f"{pin:.3e}" if pin == pin else "n/a"
        print(
            f"{float(row['c']):>8.3f} {float(row['margin']):>+12.4f} "
            f"{'holds' if row['holds'] == '1' else 'fails':<10} {pin_s:>12} "
            f"{'yes' if row['diverged'] == '1' else 'no':<8}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
