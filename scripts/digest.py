#!/usr/bin/env python3
"""Print the frozen-output digest: one "sha256 exit argv" line per fixed
ionrep command-line call, then two "sha256 name" lines over POINTS random
operating points drawn from random.Random(0).

A call line hashes the exit code, stdout, stderr and written files of one
in-process call, run in a fresh directory that holds CONFIGS. The CLI prints
9 significant digits, so these lines cannot see a last-bit change. The help
pages and argparse's usage errors are pinned by tests/golden/help.txt. The
evaluate_rate line hashes each point's repr(evaluate_rate(...).to_dict()),
or its InfeasibleError message, and the SimConfig.p line each point's
SimConfig.from_profile(...).p as float.hex. Diff the output of two
checkouts: equal lines mean equal CLI bytes and bit-equal reports and p.

    python3 scripts/digest.py
"""
import contextlib, hashlib, io, os, pathlib, random, shlex, sys, tempfile, warnings  # noqa: E401

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from ionrep import (ChainLayout, HardwareProfile, InfeasibleError, SimConfig, cli,  # noqa: E402
                    evaluate_rate)

CONFIGS = {
    "full.json": b'{"hardware": {"tau_us": 2, "tau_g_us": 10, "tau_o_us": 80, "tau_m_us": 1e6'
                 b'}, "layout": {"l_km": 100, "n": 9, "time_mux": 5}, "bounds": {"n_max": 60, '
                 b'"m_max": 80}, "constraints": {"tau_min_us": 1.5}, "sim": {"num_blocks": 300,'
                 b' "n_comm_ions": 40}, "seed": 7, "sweep": {"l_list_km": [50, 100]}}',
    "json.json": b'{"output": {"format": "json"}, "layout": {"n": 3, "time_mux": 4}}',
    "key.json": b'{"output": {"format": "json"}, "hardware": {"bogus": 1}}',
    "type.json": b'{"layout": {"n": "three"}}', "array.json": b'[{"output": {}}]',
    "section.json": b'{"hardware": 3}', "broken.json": b'{"layout": ',
    "empty.json": b'{"sweep": {"l_list_km": []}}', "bytes.json": b'\xff\xfe{}',
}
RUNS = """rate --n 87 --time-mux 22 --output out.txt
rate --l-km 20 --n 1 --time-mux 6 --tau-g-us 10 --tau-o-us 80
rate --n 87 --time-mux 22 --tau-m-us 100
rate --n 3 --time-mux 3 --tau-o-us 0.5 --f0 0.1
rate --n 3 --time-mux 3 --tau-us 1e-9
rate --n 3
rate --l-km 0.6 --n 1 --time-mux 6 --tau-g-us 3 --tau-o-us 4
classify --l0-km 1.7
classify --l0-km 40 --tau-o-us 10
classify --tau-g-us 3 --l0-km 0.05
optimize
optimize --l-km 300 --spatial-mux 1 --tau-g-us 10
optimize --n-o-max 3
optimize --tau-min-us 2 --n-max 100 --m-max 100
optimize --fixed-l0-km 5 --n-m-max 500
sweep --l-list-km 10,200,1000 --n-o-max 40
sweep --l-min-km 50 --l-max-km 300 --l-step-km 50 --tau-o-us 10 --fixed-n 5
sweep --l-list-km 50,100 --tau-min-us 3 --spatial-mux 5
simulate --l-km 20 --n 1 --time-mux 6 --num-blocks 2000 --validate
simulate --l-km 30 --n 2 --spatial-mux 2 --time-mux 3 --p-override 0.3 --validate
simulate --l-km 8 --n 1 --spatial-mux 3 --time-mux 4 --tau-o-us 5 --n-comm-ions 5 --validate
simulate --l-km 8 --n 1 --spatial-mux 3 --time-mux 4 --p-override 1 --num-blocks 5 --trace t
simulate --tau-us 0.01 --n 3 --time-mux 3 --num-blocks 100 --n-mem-ions 20 --trace t
simulate --l-km 20 --n 1 --time-mux 6 --num-blocks 100 --validate --tau-m-us 10
simulate --n 3 --time-mux 3 --tau-us 1e-300 --seed -1
simulate --l-km 20 --n 1 --spatial-mux 8 --time-mux 6 --num-blocks 300 --validate
simulate --l-km 40 --n 2 --spatial-mux 9 --time-mux 4 --tau-o-us 80 --num-blocks 300 --validate
simulate --l-km 60 --n 3 --spatial-mux 50 --time-mux 3 --num-blocks 200 --validate
simulate --l-km 0.6 --n 1 --spatial-mux 2 --time-mux 6 --tau-g-us 3 --tau-o-us 4 --num-blocks 2000 --validate
figure fig7 --l-list-km 50,100 --out-dir figs
figure fig2 fig8 --l-list-km 20,200 --out-dir f
figure fig2 --n-max -1
figure fig9 --l-list-km 50,150 --n-max 60 --m-max 200 --out-dir f
figure all --l-list-km 50,150 --n-max 60 --m-max 200 --out-dir f
figure all --l-min-km 10 --l-max-km 500 --l-step-km 50 --out-dir f
figure fig2 fig7 --l-list-km 50 --n-max 20 --m-max 50 --tau-o-us 5 --out-dir f
figure fig9 --tau-us 100 --tau-o-us 5000 --l-list-km 1e10 --n-max 20 --m-max 50 --out-dir f""".splitlines()
RUNS += [f"{cmd} --config {name}" for name in CONFIGS for cmd in ("rate", "optimize")]
RUNS += [f"{cmd} --config full.json" for cmd in ("classify", "sweep", "simulate", "figure fig7")]
# CSV tables run as they are: a plain one, one with quoted reasons, one row with a bool
CSV_RUNS = """sweep --l-list-km 50,100 --format csv
sweep --l-list-km 100,300 --n-o-max 5 --format csv
rate --n 87 --time-mux 22 --format csv""".splitlines()

POINTS = 4000
US = 1e-6
# (tau_g, tau_o) in microseconds: every regime occurs over 1-1000 km links
TAUS_US = ((1.0, 50.0), (2.5, 50.0), (10.0, 12.0), (1.0, 500.0))


def call(argv: list[str]) -> str:
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        os.chdir(tmp)
        try:
            for name, data in CONFIGS.items():
                pathlib.Path(name).write_bytes(data)
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        finally:
            os.chdir(home)
        files = sorted(p for p in pathlib.Path(tmp).rglob("*") if p.name not in CONFIGS)
        written = b"".join(f"\0{p.relative_to(tmp)}\0".encode() + p.read_bytes()
                           for p in files if p.is_file())
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode() + written)
    return f"{digest.hexdigest()} {code} {shlex.join(argv)}"


def points():
    """POINTS (layout, hardware) pairs drawn from random.Random(0)."""
    rng = random.Random(0)
    base = HardwareProfile()
    for _ in range(POINTS):
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


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    for run in RUNS:
        for style in ("text", "json", "csv"):
            print(call(shlex.split(run) + ["--format", style]))
    for run in [r for r in RUNS if "--config" in r] + CSV_RUNS:
        print(call(shlex.split(run)))
    reports, probs = hashlib.sha256(), hashlib.sha256()
    for layout, hw in points():
        try:
            line = repr(evaluate_rate(layout, hw).to_dict())
        except InfeasibleError as err:
            line = str(err)
        reports.update(line.encode() + b"\n")
        probs.update(float(SimConfig.from_profile(layout, hw, 1).p).hex().encode() + b"\n")
    print(f"{reports.hexdigest()} evaluate_rate")
    print(f"{probs.hexdigest()} SimConfig.p")


if __name__ == "__main__":
    main()
