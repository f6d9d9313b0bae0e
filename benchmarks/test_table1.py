"""Table 1 — Mean squared error for all models and tasks.

Paper values (×10⁻³; delay in s², MCT on log scale):

    |                      | Pre-train delay | FT(10%) delay | FT(10%) MCT |
    | NTT pre-trained      | 0.072           | 0.097         | 65          |
    | NTT from scratch     | —               | 0.313         | 117         |
    | Last observed        | 0.142           | 0.121         | 2189        |
    | EWMA                 | 0.259           | 0.211         | 1147        |
    | No aggregation       | 0.258           | 0.430         | 61          |
    | Fixed aggregation    | 0.055           | 0.134         | 115         |
    | Without packet size  | 0.001           | 8.688         | 94          |
    | Without delay        | 15.797          | 10.898        | 802         |

Expected *shape* at our scale: pre-trained beats from-scratch and both
naive baselines on the fine-tuned delay task; the without-delay ablation
is far worse than every delay-aware model.
"""

from __future__ import annotations

from benchmarks.conftest import save_results
from repro.core.pipeline import format_rows, run_table1


def test_table1_all_models_and_tasks(scale, experiment):
    rows = run_table1(experiment)
    save_results("table1", {"rows": rows})
    print("\nTable 1 (MSE; delay in s^2 x1e-3, MCT in log^2 x1e-3):")
    print(format_rows(rows))

    for row in rows.values():
        for column, value in row.items():
            assert value is None or value >= 0, (column, value)

    if scale.name == "smoke":
        return  # smoke scale validates plumbing, not learning quality

    pretrained = rows["ntt_pretrained"]
    scratch = rows["ntt_from_scratch"]
    # Headline claim: pre-training generalizes better than training from
    # scratch on the small fine-tuning dataset.
    assert pretrained["finetune_delay_mse"] <= scratch["finetune_delay_mse"]
    # The pre-trained NTT beats the naive EWMA baseline on delay.
    assert pretrained["finetune_delay_mse"] < rows["ewma"]["finetune_delay_mse"]
    # Removing the delay input destroys delay prediction (paper: 15.8 vs
    # 0.072): worst pre-training MSE of all model rows by far.
    assert rows["without_delay"]["pretrain_delay_mse"] > 3 * pretrained["pretrain_delay_mse"]
    # The NTT learns sensible MCTs: it beats both naive baselines on the
    # new task (paper: 65 vs 2189/1147).
    assert pretrained["finetune_mct_mse"] < rows["last_observed"]["finetune_mct_mse"]
    assert pretrained["finetune_mct_mse"] < rows["ewma"]["finetune_mct_mse"]
