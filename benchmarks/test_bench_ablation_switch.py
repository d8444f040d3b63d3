"""Ablation benchmark — the switching criterion of Algorithm 1.

The switch criteria are HeteroSwitch's key design choice: HeteroSwitch
applies generalization *selectively* (switched), versus never (FedAvg) or
always (ISP transformation + SWAD on every client).  This bench regenerates the
three-way comparison embedded in Table 4's first four rows and reports the
fairness variance of each regime.
"""

from conftest import run_once

from repro.eval.experiments import table4_main_evaluation

REGIMES = ("fedavg", "isp_transform", "isp_swad", "heteroswitch")


def test_bench_ablation_switch_criterion(benchmark, bench_scale):
    result = run_once(benchmark, table4_main_evaluation, scale=bench_scale,
                      methods=REGIMES, seed=0)
    print()
    print(result.to_markdown())

    never = result.scalar("fedavg_variance")
    always = result.scalar("isp_swad_variance")
    switched = result.scalar("heteroswitch_variance")

    # All three regimes produce valid, bounded fairness numbers.  The paper-scale
    # finding — the switched regime has the lowest variance of the three — needs
    # the full 1000-round runs to stabilise; at bench scale we check the regimes
    # are all trainable and the switched regime's average accuracy is competitive.
    assert all(0.0 <= value < 100.0 for value in (never, always, switched))
    for regime in REGIMES:
        assert 0.0 <= result.scalar(f"{regime}_average") <= 1.0
    assert result.scalar("heteroswitch_average") >= result.scalar("isp_swad_average") - 0.15
