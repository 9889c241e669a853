"""Mutation check: do the tier-1 tests catch small, wrong changes?

Each mutation below changes one line of `src/` into a plausible mistake.
For each, the script unpacks a fresh `git archive` copy of HEAD,
applies the one change, runs the tier-1 tests that cover that line and
prints whether they catch it ("killed") or let it through ("SURVIVED").
An unmutated copy must pass the same tests first, or no verdict means
anything (mutation testing: DeMillo, Lipton & Sayward, IEEE Computer
11(4), 34, 1978).

    python scripts/mutants.py
    python scripts/mutants.py --work /tmp/mutants

Run from inside the repository. The copies go under --work (a new
temporary directory by default, removed at the end). Exit status: 0 when
every mutation is killed, 1 when one survives, 2 when the unmutated tests
fail or a mutation's line is not found exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to the repository root
    line: str  # the whole line as committed, without its newline
    mutant: str
    tests: tuple[str, ...]  # pytest node ids that cover the line


MUTATIONS = (
    Mutation(
        "train_period reads 2% long",
        "src/vortexcascade/pulses.py",
        "    return (fundamental + delta) * dt",
        "    return (fundamental + delta) * dt * 1.02",
        (
            "tests/test_pulses.py",
            "tests/test_acceptance.py::test_criterion_8_chirp_matching",
        ),
    ),
    Mutation(
        "far_field's focal scale lambda*f x1.001",
        "src/vortexcascade/beams.py",
        "    lam_f = npx * spec.dx**2",
        "    lam_f = npx * spec.dx**2 * 1.001",
        (
            "tests/test_beams.py",
            "tests/test_cascade.py",
            "tests/test_acceptance.py::test_criterion_5_ring_radius_scaling",
        ),
    ),
    Mutation(
        "extract_charge reports ell + 1 for |ell| >= 5",
        "src/vortexcascade/interferometry.py",
        "        ell = turns[1]",
        "        ell = turns[1] + (abs(turns[1]) >= 5)",
        (
            "tests/test_interferometry.py",
            "tests/test_acceptance.py::test_criterion_2_figure3_sequences",
            "tests/test_acceptance.py::test_criterion_6_charge_round_trip",
        ),
    ),
    Mutation(
        "sideband_charge off by one at k = 3",
        "src/vortexcascade/cascade.py",
        "    return cfg.ell_s + label.k * (cfg.ell_p - cfg.ell_s)",
        "    return cfg.ell_s + label.k * (cfg.ell_p - cfg.ell_s) + (label.k == 3)",
        (
            "tests/test_cascade.py",
            "tests/test_acceptance.py::test_criterion_1_selection_rule_exactness",
            "tests/test_acceptance.py::test_criterion_3_conservation_law",
        ),
    ),
    Mutation(
        "write_pgm16 rounds down",
        "src/vortexcascade/pgmio.py",
        "        np.round(scaled, out=scaled)",
        "        np.floor(scaled, out=scaled)",
        (
            "tests/test_config_cli.py::TestPgmFormat",
            "tests/test_config_cli.py::TestAnalyzeCommand",
            "tests/test_acceptance.py::test_criterion_6_charge_round_trip",
        ),
    ),
)


def unpack(dest: Path) -> None:
    """A clean copy of HEAD at dest: committed files only."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "HEAD"], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit("git archive HEAD failed")


def mutate(root: Path, m: Mutation) -> bool:
    """Apply m in the copy at root; False when its line is not there exactly once."""
    path = root / m.path
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == m.line]
    if len(hits) != 1:
        return False
    lines[hits[0]] = m.mutant
    path.write_text("\n".join(lines))
    return True


def tests_pass(root: Path, tests) -> int:
    """pytest's exit code for tests in the copy at root (0: all passed)."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="directory for the copies (default: a temporary one)")
    args = parser.parse_args(argv)
    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="mutants-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        base = work / "unmutated"
        unpack(base)
        covering = list(dict.fromkeys(t for m in MUTATIONS for t in m.tests))
        if tests_pass(base, covering) != 0:
            print("the unmutated tests fail at HEAD; no verdict")
            return 2
        survivors, stale = [], []
        for i, m in enumerate(MUTATIONS):
            root = work / f"mutant{i}"
            unpack(root)
            if not mutate(root, m):
                stale.append(m)
                print(f"{m.name}: line not found once in {m.path}")
                continue
            code = tests_pass(root, m.tests)
            if code == 0:
                survivors.append(m)
            elif code != 1:  # 1 is a failed test; anything else is no verdict
                stale.append(m)
                print(f"{m.name}: pytest exit code {code}")
                continue
            print(f"{m.name}: {'SURVIVED' if code == 0 else 'killed'}")
            shutil.rmtree(root)
        print(f"{len(MUTATIONS)} mutations, {len(survivors)} survived")
        for m in survivors:
            print(f"  survivor: {m.name} ({m.path}: {m.mutant.strip()})")
        return 2 if stale else 1 if survivors else 0
    finally:
        if not args.work:
            shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
