"""Command-line front end.

Subcommands: ``enroll`` (image + password -> template), ``verify``
(template comparison), ``attack`` (build and solve one of the
constrained programs), ``bench`` (batch attack statistics as CSV),
``synth`` (deterministic random test images), ``digest`` (projection
matrix fingerprint).

Exit codes: 0 success / certified attack, 1 verification rejection,
2 bad input, 3 infeasible, 4 time limit, 5 continuous relaxation only.
Exit 3 is a proof only for the feature phase, which carries a Farkas
certificate; for the image programs it means that the continuous
relaxation never reached the feasibility tolerance, and a solution may
still exist.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .pgm import PgmError, load_pgm, save_pgm
from .pipeline import (
    GrayImage,
    PipelineError,
    Template,
    enroll,
    sobel,
    verify,
)
from .prng import SeedError, SplitMix64, derive_matrix, derive_seed, matrix_digest
from .problems import (
    ProblemError,
    _archived,
    build_feature_phase,
    build_image_phase,
    build_merged,
    build_multi_collision,
    problem_from_json,
)
from .solver import (
    SolverConfig,
    SolverError,
    SolveStatus,
    report_to_json,
    solve,
    solve_qcqp,
)

_STATUS_EXIT = {
    SolveStatus.CERTIFIED_FEASIBLE: 0,
    SolveStatus.INFEASIBLE: 3,
    SolveStatus.TIMED_OUT: 4,
    SolveStatus.CONTINUOUS_ONLY: 5,
}


def _solver_config(args) -> SolverConfig:
    """Flags beat the JSON config file, the file beats the defaults."""
    base: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        allowed = set(SolverConfig.__dataclass_fields__)
        unknown = set(loaded) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        base.update(loaded)
    if getattr(args, "time_limit", None) is not None:
        base["time_limit"] = args.time_limit
    if getattr(args, "seed", None) is not None:
        base["rng_seed"] = args.seed
    if getattr(args, "restarts", None) is not None:
        base["restarts"] = args.restarts
    return SolverConfig(**base)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_enroll(args) -> int:
    image = load_pgm(args.image)
    template = enroll(image, args.password, args.bits, args.orthonormalize)
    if args.json:
        payload = {
            "bits": len(template),
            "hex": template.to_hex(),
            "bitstring": template.to_bitstring(),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(template.to_hex(), args.out)
    return 0


def _cmd_verify(args) -> int:
    image = load_pgm(args.image)
    probe = enroll(image, args.password, args.bits, args.orthonormalize)
    stored = Template.from_hex(args.template, args.bits)
    decision = verify(probe, stored, args.threshold)
    if args.json:
        payload = {
            "distance": decision.distance,
            "threshold": decision.threshold,
            "accepted": decision.accepted,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        verdict = "accept" if decision.accepted else "reject"
        _emit(f"{verdict} distance={decision.distance} threshold={decision.threshold}", args.out)
    return 0 if decision.accepted else 1


def _load_victims(path: str) -> list[tuple[Template, str]]:
    """The (template, password) pairs of a --victims file: a JSON list of
    {"password": str, "bits": int, "template_hex": str} objects.  A file
    can hold any type in any field; the archive checker rejects the wrong
    one here, not with a TypeError mid-build."""
    with open(path, encoding="utf-8") as fh:
        listed = json.load(fh)
    if not isinstance(listed, list):
        raise ValueError(f"--victims must hold a JSON list, not {type(listed).__name__}")
    victims = []
    for v in listed:
        if not isinstance(v, dict):
            raise ValueError(f"a victim is a JSON object, got {v!r}")
        password = _archived(v, "password", (str,), "a string")
        bits = _archived(v, "bits", (int,), "an integer")
        template = Template.from_hex(_archived(v, "template_hex", (str,), "a hex string"), bits)
        victims.append((template, password))
    return victims


def _build_attack_problem(args):
    if args.problem:
        with open(args.problem, encoding="utf-8") as fh:
            return problem_from_json(json.load(fh))
    if not args.kind or not args.anchor:
        raise ValueError("need --problem, or --kind together with --anchor")
    anchor = load_pgm(args.anchor)
    if args.kind == "image":
        if not args.target:
            raise ValueError("--kind image needs --target (PGM whose features to match)")
        target = sobel(load_pgm(args.target))
        return build_image_phase(anchor, target)
    if args.kind == "multi-collision":
        if not args.victims:
            raise ValueError("--kind multi-collision needs --victims JSON file")
        return build_multi_collision(anchor, _load_victims(args.victims), args.delta, args.orthonormalize)
    if not args.password or args.bits is None or not args.template:
        raise ValueError(f"--kind {args.kind} needs --password, --bits and --template")
    template = Template.from_hex(args.template, args.bits)
    password = args.password.encode("utf-8")
    if args.kind == "feature":
        return build_feature_phase(
            sobel(anchor),
            template,
            delta=args.delta,
            password=password,
            orthonormalize=args.orthonormalize,
        )
    # "merged" and "multi-auth" build the same program; they differ only
    # in where the template came from.
    return build_merged(
        anchor,
        template,
        delta=args.delta,
        password=password,
        orthonormalize=args.orthonormalize,
    )


def _cmd_attack(args) -> int:
    problem = _build_attack_problem(args)
    report = solve(problem, _solver_config(args))
    _emit(json.dumps(report_to_json(report), indent=2), args.out)
    if args.solution_out and isinstance(report.solution, GrayImage):
        save_pgm(report.solution, args.solution_out)
    return _STATUS_EXIT[report.status]


def _synth_image(width: int, height: int, tag: str) -> GrayImage:
    stream = SplitMix64(derive_seed(tag))
    # the top 8 bits of each output, as SplitMix64.next_byte takes them
    flat = (stream.next_u64s(width * height) >> np.uint64(56)).astype(np.int64)
    return GrayImage.from_flat(width, height, flat)


def _bench_trial(payload):
    trial, side, bits, config = payload
    seed = config.rng_seed
    anchor = _synth_image(side, side, f"bench:{seed}:{trial}:anchor")
    victim = _synth_image(side, side, f"bench:{seed}:{trial}:victim")
    password = f"bench:{seed}:{trial}:pw"
    template = enroll(victim, password, bits)
    problem = build_merged(anchor, template, password=password.encode("utf-8"))
    report = solve_qcqp(problem, dataclasses.replace(config, rng_seed=seed + trial))
    return trial, report.euclidean_distance, report.wall_time, report.certified


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.workers < 0:
        raise ValueError(f"--workers must be 0 (one per core) or more, got {args.workers}")
    config = _solver_config(args)
    payloads = [(t, args.image_size, args.template_size, config) for t in range(args.trials)]
    results = []
    try:
        if args.workers == 1:
            for payload in payloads:
                results.append(_bench_trial(payload))
        else:
            workers = args.workers or min(args.trials, os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
                for row in pool.map(_bench_trial, payloads):
                    results.append(row)
    except KeyboardInterrupt:
        print(f"interrupted after {len(results)} of {args.trials} trials", file=sys.stderr)
    results.sort(key=lambda r: r[0])
    lines = ["image_size,template_size,mean_distance,mean_time_s,certified_rate"]
    if results:
        dists = [r[1] for r in results if r[3]]
        mean_dist = float(np.mean(dists)) if dists else float("nan")
        mean_time = 0.0 if args.no_timing else float(np.mean([r[2] for r in results]))
        rate = sum(1 for r in results if r[3]) / len(results)
        lines.append(
            f"{args.image_size},{args.template_size},"
            f"{mean_dist:.6f},{mean_time:.6f},{rate:.6f}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_synth(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be 0 or more, got {args.count}")
    # checked before the output directory is made, so a refused run leaves none
    if args.width < 1 or args.height < 1:
        raise PipelineError(f"image dims must be positive, got {args.height}x{args.width}")
    os.makedirs(args.out_dir, exist_ok=True)
    for i in range(args.count):
        image = _synth_image(args.width, args.height, f"synth:{args.seed_label}:{i}")
        path = os.path.join(args.out_dir, f"{args.prefix}-{i:04d}.pgm")
        save_pgm(image, path)
        print(path)
    return 0


def _cmd_digest(args) -> int:
    matrix = derive_matrix(args.password, args.n, args.m, args.orthonormalize)
    print(f"{matrix_digest(matrix):016x}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biopreimage",
        description="Keyed projection templates from image gradients, and the "
        "constrained programs that invert them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", help="derive a template from an image and password")
    p.add_argument("--image", required=True)
    p.add_argument("--password", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--orthonormalize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enroll)

    p = sub.add_parser("verify", help="match a probe image against a stored template")
    p.add_argument("--image", required=True)
    p.add_argument("--password", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--template", required=True, help="stored template, hex")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--orthonormalize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("attack", help="solve a preimage / collision program")
    p.add_argument("--problem", help="archived problem JSON (overrides the other inputs)")
    p.add_argument(
        "--kind",
        choices=["feature", "image", "merged", "multi-auth", "multi-collision"],
    )
    p.add_argument("--anchor", help="attacker's anchor image (PGM)")
    p.add_argument("--target", help="image whose features to match (--kind image)")
    p.add_argument("--password")
    p.add_argument("--bits", type=int)
    p.add_argument("--template", help="target template, hex")
    p.add_argument("--victims", help="JSON list of {password, bits, template_hex}")
    p.add_argument("--delta", type=float, help="sign margin override")
    p.add_argument("--orthonormalize", action="store_true")
    p.add_argument("--config", help="solver config JSON file")
    p.add_argument("--time-limit", type=float, dest="time_limit")
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.add_argument("--solution-out", help="write the solution image as PGM")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("bench", help="batch merged attacks on synthetic images, CSV out")
    p.add_argument("--image-size", type=int, required=True, help="square side length")
    p.add_argument("--template-size", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--config", help="solver config JSON file")
    p.add_argument("--time-limit", type=float, dest="time_limit")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=0, help="0 = one per core; 1 = in-process")
    p.add_argument("--no-timing", action="store_true", help="zero the timing column for reproducible output")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("synth", help="deterministic uniform-noise PGM images")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed-label", default="0", help="string mixed into the pixel stream")
    p.add_argument("--prefix", default="img")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("digest", help="fingerprint of a derived projection matrix")
    p.add_argument("--password", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--orthonormalize", action="store_true")
    p.set_defaults(func=_cmd_digest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        PgmError,
        PipelineError,
        ProblemError,
        SeedError,
        SolverError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
