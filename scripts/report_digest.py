#!/usr/bin/env python3
"""Print two sha256 lines over fixed, seeded random operating points.

The first line hashes repr(evaluate_rate(layout, hw).to_dict()) at each
point, or the InfeasibleError message where the memory cannot cover the
block. The second hashes SimConfig.from_profile(layout, hw, 1).p at each
point, as float.hex. Run it in two checkouts and compare: equal lines mean
bit-equal reports, or bit-equal simulator success probabilities. The CLI's
output digest (output_digest.py) prints 9 significant digits, so it cannot
see a last-bit change; these lines can.

    python3 scripts/report_digest.py [--points N] [--seed S]
"""
import argparse, hashlib, pathlib, random, sys  # noqa: E401

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from ionrep import (ChainLayout, HardwareProfile, InfeasibleError, SimConfig,  # noqa: E402
                    evaluate_rate)

US = 1e-6
# (tau_g, tau_o) in microseconds: every regime occurs over 1-1000 km links
TAUS_US = ((1.0, 50.0), (2.5, 50.0), (10.0, 12.0), (1.0, 500.0))


def points(count: int, seed: int):
    """count (layout, hardware) pairs drawn from random.Random(seed)."""
    rng = random.Random(seed)
    base = HardwareProfile()
    for _ in range(count):
        # noise off, or eps_g and 1 - f0 drawn apart and continuously, so the
        # swap survival factor x takes many values
        eps_g, f0_loss = ((rng.uniform(0.0, 1e-2), rng.uniform(0.0, 1e-2))
                          if rng.random() < 0.8 else (0.0, 0.0))
        tau_g, tau_o = rng.choice(TAUS_US)
        hw = base.updated(eps_g=eps_g, f0=1.0 - f0_loss, tau_g=tau_g * US, tau_o=tau_o * US,
                          tau_m=rng.choice((60.0, 1e-3)))  # 1 ms: some blocks outlive it
        # n = 2 a fifth of the time: numpy's power loop has a shortcut for x ** 2
        n = 2 if rng.random() < 0.2 else rng.randrange(121)
        layout = ChainLayout(10.0 ** rng.uniform(0.0, 3.0), n,
                             rng.randint(1, 50), rng.randint(1, 200))
        yield layout, hw


def digests(count: int, seed: int) -> tuple[str, str]:
    reports, probs = hashlib.sha256(), hashlib.sha256()
    for layout, hw in points(count, seed):
        try:
            line = repr(evaluate_rate(layout, hw).to_dict())
        except InfeasibleError as err:
            line = str(err)
        reports.update(line.encode() + b"\n")
        probs.update(float(SimConfig.from_profile(layout, hw, 1).p).hex().encode() + b"\n")
    return reports.hexdigest(), probs.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, digest in zip(("evaluate_rate", "SimConfig.p"),
                            digests(args.points, args.seed)):
        print(f"{digest} {name}")


if __name__ == "__main__":
    main()
