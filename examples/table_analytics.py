"""Declarative analytics: the Table layer over both kinds of data.

STREAMLINE's uniform programming model "can automatically be optimized";
this example shows the declarative face of that claim: the same
``select / where / group_by / window`` program text runs over a bounded
order history (data at rest) and over the live order stream (data in
motion), and the rule-based optimizer rewrites the plan (predicate
pushdown, projection pruning) before compilation.

Run:  python examples/table_analytics.py
"""

import random

from repro.api import Environment
from repro.table import Tumble


def generate_orders(n=2000, seed=7):
    rng = random.Random(seed)
    countries = ["de", "fr", "hu", "es"]
    return [{
        "order_id": i,
        "user": "u%d" % rng.randrange(200),
        "country": rng.choice(countries),
        "amount": round(rng.uniform(1, 200), 2),
        "ts": i * 45,
    } for i in range(n)]


def batch_report(orders):
    print("== data at rest: revenue per country (batch) ==")
    env = Environment(parallelism=2)
    report = (env.table(orders)
              .where(lambda r: r["amount"] >= 10, reads=("amount",),
                     description="amount>=10")
              .select("country", "amount")
              .group_by("country")
              .agg(revenue=("sum", "amount"),
                   orders=("count", None),
                   avg_order=("avg", "amount"))
              .collect())
    env.execute()
    for row in sorted(report.get(), key=lambda r: -r["revenue"]):
        print("  %-3s revenue=%9.2f  orders=%4d  avg=%6.2f"
              % (row["country"], row["revenue"], row["orders"],
                 row["avg_order"]))


def streaming_report(orders):
    print("\n== data in motion: revenue per country per minute (stream) ==")
    env = Environment()
    table = (env.table(orders, bounded=False, time_column="ts")
             .where(lambda r: r["amount"] >= 10, reads=("amount",),
                    description="amount>=10")
             .select("country", "amount", "ts")
             .window(Tumble("ts", 30_000))
             .group_by("country")
             .agg(revenue=("sum", "amount")))
    print(table.explain())
    report = table.collect()
    env.execute()
    windows = sorted(report.get(),
                     key=lambda r: (r["window_start"], r["country"]))
    for row in windows[:8]:
        print("  [%6d, %6d)  %-3s revenue=%9.2f"
              % (row["window_start"], row["window_end"], row["country"],
                 row["revenue"]))


if __name__ == "__main__":
    orders = generate_orders()
    batch_report(orders)
    streaming_report(orders)
