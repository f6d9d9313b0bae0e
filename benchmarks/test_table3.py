"""Table 3 — generalization on the larger topology (case 2).

Paper values (delay MSE ×10⁻³ / training time):

    | Pre-trained, fine-tune full data | 0.004 | 10h |
    | Pre-trained, fine-tune 10% data  | 0.035 | 8h  |
    | From scratch, full data          | 5.2   | 20h |
    | From scratch, 10% data           | 8.2   | 11h |
    | (baselines, not shown)           | 11.2 / 4.0 |
    | (without addressing, not shown)  | 2.8   |

Expected shape: on the harder multi-receiver topology, fine-tuning a
pre-trained model works while from-scratch training is dramatically
worse (paper: ~3 orders of magnitude); dropping receiver IDs hurts
badly because the model cannot tell paths apart.
"""

from __future__ import annotations

from benchmarks.conftest import save_results
from repro.core.pipeline import format_rows, run_table3


def test_table3_larger_topology(scale, experiment):
    rows = run_table3(experiment)
    save_results("table3", {"rows": rows})
    print("\nTable 3 (delay MSE s^2 x1e-3, fine-tuning wall time s):")
    print(format_rows(rows))

    for row in rows.values():
        assert row["delay_mse"] >= 0

    if scale.name == "smoke":
        return  # smoke scale validates plumbing, not learning quality

    # Pre-training is essential on the larger topology: fine-tuned
    # models beat from-scratch on both dataset sizes.
    assert rows["pretrained_full"]["delay_mse"] <= rows["scratch_full"]["delay_mse"]
    assert rows["pretrained_10pct"]["delay_mse"] <= rows["scratch_10pct"]["delay_mse"]
    # Without receiver IDs the model cannot differentiate paths: worse
    # than the full pre-trained model (paper: 2.8 vs 0.004).
    assert (
        rows["without_receiver_id"]["delay_mse"]
        > rows["pretrained_full"]["delay_mse"]
    )
