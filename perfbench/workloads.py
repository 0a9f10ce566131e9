"""The benchmark's workloads: seeded set-up, the timed call, and the check.

Each workload's ``setup(seed, workdir)`` builds its inputs and returns an
endless iterator of ops.  Drawing an op computes its expected answer
independently of the construction layer; an op's ``call()`` is the only
thing timed, and ``check(result)`` compares the result with that answer.
``check`` returns None when the result is right, and otherwise a message
that starts with ``error`` when the program refused a valid input, or with
``wrong`` for a wrong verdict.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from grassmann import cli, constructions
from grassmann.core import Point
from grassmann.oracle import hessian_flex_oracle

from . import inputs

FLEX_POINT = Point(*inputs.FLEX)


def _fmt(t) -> str:
    return "[" + ":".join(str(c) for c in t) + "]"


# ---------------------------------------------------------------------------
# scenes: one CLI call per op


# (command, extra argv, expected exit code)
SCENE_COMMANDS = (
    ("fit9", (), 0),
    ("check10", ("--point", "p_1"), 0),
    ("check10", ("--point", "q_1"), 1),
    ("third_point", (), 0),
    ("tangent", (), 0),
    ("tangent_third", (), 0),
    ("is_flex", (), 1),
    ("conic_sixth", (), 0),
)


def _expected_outputs(s: inputs.GridScene) -> list[dict[str, str]]:
    """Report outputs the oracle fixes, per entry of SCENE_COMMANDS."""
    return [
        {"cubic coefficients": _fmt(s.cubic)},
        {"point p_1 on cubic": "true"},
        {"point q_1 on cubic": "false"},
        {"point third": _fmt(s.chord_third)},
        {"line tangent": _fmt(s.tangent)},
        {"point w": _fmt(s.tangent_third), "line tangent": _fmt(s.tangent)},
        {"a is a flex": "false"},
        {"point z": _fmt(s.sixth)},
    ]


@dataclass
class SceneOp:
    argv: list[str]
    expected_code: int
    expected: dict[str, str]
    key: tuple[int, int]
    seen: dict = field(repr=False)

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, result):
        code, text, err = result
        if code not in (0, 1) and "status: " not in text:
            return f"error: exit {code} from {' '.join(self.argv)}: {err.strip()}"
        outputs, checks, status = {}, [], None
        for line in text.splitlines():
            if line.startswith("output "):
                name, _, value = line[7:].partition(" = ")
                outputs[name] = value
            elif line.startswith("check "):
                checks.append(line.endswith(": pass"))
            elif line.startswith("status: "):
                status = line[8:]
        first = self.seen.setdefault(self.key, text)
        right = (
            code == self.expected_code
            and status == "ok"
            and checks
            and all(checks)
            and all(outputs.get(k) == v for k, v in self.expected.items())
            and text == first
        )
        return None if right else f"wrong: exit {code} from {' '.join(self.argv)}:\n{text}"

    def digest_bytes(self, result) -> bytes:
        return f"{result[0]}\n{result[1]}".encode()


class Scenes:
    name = "scenes"
    scene_count = 128
    traced_ops_per_second = 28

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        scene_dir = workdir / "scenes"
        scene_dir.mkdir(parents=True, exist_ok=True)
        seen: dict = {}
        ops: list[SceneOp] = []
        for idx in range(self.scene_count):
            s = inputs.grid_scene(rng)
            path = scene_dir / f"scene{idx:03d}.txt"
            path.write_text(s.serialize(), encoding="utf-8")
            for k, ((cmd, extra, code), expected) in enumerate(
                zip(SCENE_COMMANDS, _expected_outputs(s))
            ):
                argv = [cmd, "--in", str(path), *extra]
                ops.append(SceneOp(argv, code, expected, (idx, k), seen))
        # a scene's command repeats only once every scene_count * 8 ops
        return itertools.cycle(ops)


# ---------------------------------------------------------------------------
# group law: one group_add per op


@dataclass
class GroupOp:
    op: inputs.GroupOp

    def call(self):
        op = self.op
        return constructions.group_add(op.known, FLEX_POINT, op.p, op.q, verify_flex=False)

    def check(self, result):
        got = inputs.primitive(result.coords)
        if got != self.op.expected or not inputs.on_weierstrass(got):
            return f"wrong: {self.op.p} + {self.op.q} gave {got}, not {self.op.expected}"
        return None

    def digest_bytes(self, result) -> bytes:
        return _fmt(inputs.primitive(result.coords)).encode()


class GroupLaw:
    name = "group_law"
    traced_ops_per_second = 22

    def pool(self, f):
        return inputs.small_pool(f)

    def setup(self, seed: int, workdir: Path):
        f = inputs.weierstrass()
        if not hessian_flex_oracle(f, FLEX_POINT):
            raise ValueError("identity is not a flex")
        rounds = inputs.group_rounds(f, self.pool(f), random.Random(seed))
        return map(GroupOp, itertools.chain.from_iterable(rounds))


class GroupLawTall(GroupLaw):
    name = "group_law_tall"
    traced_ops_per_second = 12

    def pool(self, f):
        return inputs.tall_pool(f)


WORKLOADS = {w.name: w for w in (Scenes(), GroupLaw(), GroupLawTall())}

