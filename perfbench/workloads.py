"""The trajforge pipeline as the benchmark runs it, with output checks.

A run makes seeded synthetic data and runs three stages, each timed from
outside through the package's public functions:

- train: one `pretrain.pretrain` call from a fresh policy, then `eval_policy`;
- generate: one `trajmodel.generate_scored` call per held-out trip context,
  using the policy that `train` returned;
- critic: one `rewardirl.train_critic` call from a fresh critic, then one
  `recover_reward` call per held-out transition.

Every stage runs in every workload, so that each end-to-end metric has a value
everywhere. The workload names the stage that repeats, with the same inputs,
until its time budget is spent.
Repeats must reproduce the first pass exactly. Timings are read at the
reference host speed of `hostspeed`."""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from trajforge import pretrain, rewardirl, synthgen, tokenizer, trajmodel
from trajforge.numcore import make_rng

from hostspeed import HostClock

PRIMARY = {"bc-train": "train", "rollout": "generate", "irl-critic": "critic"}

EVAL_FRACTION = 0.2
POLICY_EPOCHS = 2  # a 2-epoch policy still wanders, so trips pass the 12-step context
POLICY_BATCH = 64
GEN_TRIPS = 80  # first held-out trips: about 1.3k moves; fewer let the seed's share of long trips sway moves/s
CRITIC_EPOCHS = 6
CRITIC_BATCH = 256


@dataclass
class Data:
    synth: synthgen.SynthConfig
    dataset: synthgen.Dataset
    prefs: synthgen.PreferenceParams


def make_data(seed: int) -> Data:
    synth = synthgen.SynthConfig(seed=seed)
    dataset, prefs = synthgen.gen_dataset(synth)
    return Data(synth, synthgen.split(dataset, EVAL_FRACTION, seed), prefs)


def same_data(a: Data, b: Data) -> bool:
    da, db = a.dataset, b.dataset
    return (da.trajectories, da.train_idx, da.eval_idx) == (db.trajectories, db.train_idx, db.eval_idx) and np.array_equal(
        a.prefs.theta, b.prefs.theta
    )


@dataclass
class TrainPass:
    model: trajmodel.PolicyModel
    seconds: float  # at reference host speed, as every `seconds` below
    slowdown: float
    tokens: int
    eval_nll: float
    eval_acc: float

    def fingerprint(self):
        return self.model.params_hash(), self.eval_nll, self.eval_acc


@dataclass
class GeneratePass:
    results: list
    seconds: list  # one latency per generate_scored call
    slowdown: float

    def fingerprint(self):
        return [(r.trajectory.positions, r.trajectory.actions, r.trajectory.flag, r.log_probs.tobytes()) for r in self.results]


@dataclass
class CriticPass:
    critic: rewardirl.CriticModel
    seconds: float
    slowdown: float
    transitions: int

    def fingerprint(self):
        return self.critic.params_hash()


@dataclass
class RewardPass:
    rewards: list

    def fingerprint(self):
        return self.rewards


class Pipeline:
    """One workload process: data, stages and the tally of checked operations."""

    def __init__(self, seed: int, tracer=None, clock: HostClock | None = None):
        self.seed = seed
        self.tracer = tracer
        self.clock = clock or HostClock(sample=False)
        self.data: Data | None = None
        self.setup_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0

    def aside(self):
        """The benchmark's own bookkeeping and checks stay out of the trace."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)

    def set_up(self) -> None:
        """Make the data; a repeat must give the same data."""
        with self.clock.measure() as reading:
            data = make_data(self.seed)
        self.setup_seconds.append(reading.ref_seconds)
        if self.data is None:
            self.data = data
        elif not same_data(self.data, data):
            self.fail("data set-up gave different data at the same seed")

    def _vocab(self):
        return tokenizer.vocab_sizes(self.data.dataset.net, self.data.synth)

    # -- stages ------------------------------------------------------------

    def train(self) -> TrainPass:
        ds = self.data.dataset
        model_cfg = trajmodel.ModelConfig(self._vocab())
        model = trajmodel.PolicyModel(model_cfg, rng=make_rng(self.seed, "policy-init"))
        # patience >= epochs, so early stopping cannot fire
        cfg = pretrain.TrainConfig(epochs=POLICY_EPOCHS, batch_size=POLICY_BATCH, seed=self.seed, patience=POLICY_EPOCHS)
        with self.clock.measure() as reading:
            model, log = pretrain.pretrain(ds, model, cfg)
        eval_nll, eval_acc = pretrain.eval_policy(ds, model)
        with self.aside():
            windows = pretrain.build_windows(ds.train(), model_cfg.context)
            steps = cfg.epochs * math.ceil(len(windows) / cfg.batch_size)
            self.attempted += steps
            losses = [row.train_nll for row in log.rows] + [eval_nll]
            if len(log.rows) != cfg.epochs or not all(math.isfinite(x) for x in losses):
                self.fail(f"policy training: losses {losses} over {len(log.rows)} epochs")
            if not 0.0 <= eval_acc <= 1.0:
                self.fail(f"policy eval accuracy {eval_acc}")
            tokens = 3 * cfg.epochs * sum(w.n_steps for w in windows)
        return TrainPass(model, reading.ref_seconds, reading.slowdown, tokens, eval_nll, eval_acc)

    def generate(self, model) -> GeneratePass:
        net = self.data.dataset.net
        with self.aside():
            contexts = [
                trajmodel.GenerationContext(
                    origin=t.origin,
                    destination=t.destination,
                    depart_bin=t.depart_bin,
                    speed_bin=t.speed_bin,
                    user_id=t.user_id,
                    max_len=self.data.synth.max_len,
                    temperature=1.0,
                    seed=self.seed,
                    traj_id=t.traj_id,
                )
                for t in self.data.dataset.eval()[:GEN_TRIPS]
            ]
        results, seconds = [], []
        with self.clock.measure() as reading:
            for ctx in contexts:
                t0, probes0 = perf_counter(), reading.stolen_s
                results.append(trajmodel.generate_scored(ctx, model, net))
                seconds.append(perf_counter() - t0 - (reading.stolen_s - probes0))
        seconds = [s / reading.slowdown for s in seconds]  # the pass's host speed, for want of a finer one
        with self.aside():
            max_moves = min(self.data.synth.max_len, model.cfg.vocab.max_timestep - 1)
            for ctx, res in zip(contexts, results):
                self.attempted += 1
                problem = trip_problem(ctx, res, net, max_moves)
                if problem:
                    self.fail(f"trip {ctx.traj_id}: {problem}")
        return GeneratePass(results, seconds, reading.slowdown)

    def critic(self) -> CriticPass:
        ds = self.data.dataset
        critic = rewardirl.CriticModel(rewardirl.CriticConfig(self._vocab()), ds.net, rng=make_rng(self.seed, "critic-init"))
        cfg = rewardirl.IRLConfig(epochs=CRITIC_EPOCHS, batch_size=CRITIC_BATCH, seed=self.seed)
        with self.clock.measure() as reading:
            critic, log = rewardirl.train_critic(ds, critic, cfg)
        with self.aside():
            transitions = sum(len(t.actions) for t in ds.train())
            self.attempted += cfg.epochs * math.ceil(transitions / cfg.batch_size)
            losses = [row[1] for row in log.rows]
            if len(losses) != cfg.epochs or not all(math.isfinite(x) for x in losses):
                self.fail(f"critic training: losses {losses}")
        return CriticPass(critic, reading.ref_seconds, reading.slowdown, transitions)

    def score(self, critic) -> RewardPass:
        """One recover_reward call per held-out transition."""
        gamma = rewardirl.IRLConfig().gamma
        with self.aside():
            held_out = [
                (traj.state_at(t), a, traj.state_at(t + 1), traj.complete and t == len(traj.actions) - 1)
                for traj in self.data.dataset.eval()
                for t, a in enumerate(traj.actions)
            ]
        rewards = [rewardirl.recover_reward(s, a, s2, terminal, critic, gamma) for s, a, s2, terminal in held_out]
        with self.aside():
            for i, r in enumerate(rewards):
                self.attempted += 1
                if not math.isfinite(r):
                    self.fail(f"reward {i} is {r}")
        return RewardPass(rewards)

    def kl_oracle(self, critic) -> float:
        """Mean KL(oracle || critic_policy) over held-out states; the oracle sees the previous action."""
        net = self.data.dataset.net
        total, count = 0.0, 0
        for traj in self.data.dataset.eval():
            for t in range(len(traj.actions)):
                state = traj.state_at(t)
                prev = traj.actions[t - 1] if t else None
                p = synthgen.oracle_action_probs(state, self.data.prefs, net, prev_action=prev)
                q = rewardirl.critic_policy(state, critic)
                on = p > 0
                total += float(np.sum(p[on] * (np.log(p[on]) - np.log(q[on]))))
                count += 1
        kl = total / count
        if not (math.isfinite(kl) and kl >= 0.0):
            self.fail(f"critic KL to the oracle is {kl}")
        return kl


def trip_problem(ctx, res, net, max_moves: int) -> str | None:
    """What is wrong with one generated trip, or None."""
    traj = res.trajectory
    try:
        synthgen.check_connectivity(traj, net)
    except ValueError as exc:
        return str(exc)
    if traj.positions[0] != ctx.origin:
        return f"starts at {traj.positions[0]}, not {ctx.origin}"
    reached = traj.positions[-1] == ctx.destination
    if (traj.flag == "complete") != reached:
        return f"flag {traj.flag} but ends at {traj.positions[-1]} for destination {ctx.destination}"
    if traj.flag == "truncated" and len(traj.actions) != max_moves:
        return f"truncated after {len(traj.actions)} of {max_moves} moves"
    if len(traj.actions) > ctx.max_len:
        return f"{len(traj.actions)} moves exceed max_len {ctx.max_len}"
    lp = res.log_probs
    if lp.shape != (len(traj.actions),) or not np.all(np.isfinite(lp)) or np.any(lp > 0.0):
        return f"log_probs {lp} are not one finite non-positive value per move"
    return None


# A run executes these slots in order. "setup" makes the data (the first slot
# must be one, and "train" must come before "generate"); its repeats time the
# set-up. A critic pass trains a fresh critic and scores the held-out
# transitions with it. The workload's own stage repeats between the slots, so
# that its repeats are spread over the run like those of the other stages.
SCHEDULE = ("setup", "train", "critic", "generate", "setup", "critic", "setup", "critic", "generate")


def trace_schedule(primary: str) -> tuple:
    """One slot of each stage, plus one more of the workload's own stage."""
    return ("setup", "critic", "train", "generate", primary)


def run_stages(pipe: Pipeline, primary: str | None = None, seconds: float = 0.0, schedule=SCHEDULE) -> dict:
    """Run the slots of `schedule` in order. After each slot, the `primary` stage
    repeats while its repeats have taken less than their share of `seconds` so
    far, so that they add up to about `seconds` over the whole run.

    Returns {stage: [pass, ...], "kl_oracle": float}; every pass of a stage
    must match its first.
    """
    passes: dict = {"train": [], "critic": [], "generate": [], "reward": []}
    spent: dict = {"train": [], "critic": [], "generate": []}  # wall time of each pass

    def critic_pass():
        trained = pipe.critic()
        passes["reward"].append(pipe.score(trained.critic))
        return trained

    run = {"train": pipe.train, "generate": lambda: pipe.generate(passes["train"][0].model), "critic": critic_pass}

    def one_pass(stage: str) -> float:
        t0 = perf_counter()
        passes[stage].append(run[stage]())
        spent[stage].append(perf_counter() - t0)
        return spent[stage][-1]

    extra = 0.0
    for done, stage in enumerate(schedule, start=1):
        if stage == "setup":
            pipe.set_up()
        else:
            one_pass(stage)
        # repeat while a repeat ends nearer to the share so far than stopping does
        while primary is not None and spent[primary] and extra + np.mean(spent[primary]) / 2 < seconds * done / len(schedule):
            extra += one_pass(primary)
    for stage, runs in passes.items():
        for i, p in enumerate(runs[1:], start=1):
            if p.fingerprint() != runs[0].fingerprint():
                pipe.fail(f"{stage} pass {i} differs from the first pass at the same seed")
    passes["kl_oracle"] = pipe.kl_oracle(passes["critic"][0].critic)
    return passes


def end_to_end(passes: dict) -> dict[str, float]:
    """End-to-end metrics; a timing repeated with the same inputs counts the median of its repeats."""
    train, gen, critic = passes["train"], passes["generate"], passes["critic"]
    trip_s = np.median([p.seconds for p in gen], axis=0)
    trip_moves = np.array([len(r.trajectory.actions) for r in gen[0].results])
    move_ms = np.repeat(trip_s / trip_moves * 1e3, trip_moves)  # each move at its trip's mean
    return {
        "train_tokens_per_s": train[0].tokens / np.median([p.seconds for p in train]),
        "eval_nll": train[0].eval_nll,
        "eval_acc": train[0].eval_acc,
        "gen_steps_per_s": trip_moves.sum() / trip_s.sum(),
        "gen_move_ms_p50": float(np.percentile(move_ms, 50)),
        "gen_move_ms_p90": float(np.percentile(move_ms, 90)),
        "gen_complete_rate": float(np.mean([r.trajectory.flag == "complete" for r in gen[0].results])),
        "critic_transitions_per_s": critic[0].transitions * CRITIC_EPOCHS / np.median([p.seconds for p in critic]),
        "critic_kl_oracle": passes["kl_oracle"],
    }


def fingerprint(passes: dict):
    return {stage: ps[0].fingerprint() if isinstance(ps, list) else ps for stage, ps in passes.items()}
