"""Customer retention: churn prediction over a clickstream.

The first STREAMLINE application.  One unified pipeline does what a
lambda architecture needs two systems for:

1. *data at rest*  -- the historical clickstream is grouped per user to
   build behavioural features (a DataSet program);
2. *data in motion* -- an online logistic-regression model is trained
   and evaluated prequentially (test-then-train) on those examples, so
   the model is always as fresh as the last event.

Run:  python examples/customer_retention.py
"""

from repro.api import Environment
from repro.datagen import ClickstreamGenerator
from repro.ml import OnlineLogisticRegression, PrequentialEvaluator, auc


def build_feature_examples():
    """The batch half: aggregate raw events into per-user features using
    the DataSet API (same engine as the streaming half)."""
    generator = ClickstreamGenerator(num_users=300, days=30,
                                     churn_fraction=0.35, seed=2024)
    events = generator.events()

    env = Environment(parallelism=2)
    per_user = (env.from_bounded(events)
                .filter(lambda e: e.timestamp < 14 * 24 * 3600 * 1000)
                .group_by(lambda e: e.user)
                .reduce_group(lambda user, user_events: (
                    user,
                    len(user_events),
                    sum(1 for e in user_events if e.action == "purchase"),
                    sum(1 for e in user_events if e.action == "support"),
                    sum(e.dwell_ms for e in user_events) / len(user_events),
                ))
                .collect())
    env.execute()
    print("batch feature build: %d users aggregated" % len(per_user.get()))

    # Ground-truth labels from the generator's horizon logic.
    labeled = {example.user: example
               for example in generator.labeled_examples()}
    examples = []
    for user, events_n, purchases, support, avg_dwell in per_user.get():
        example = labeled.get(user)
        if example is None:
            continue
        examples.append(example)
    return examples


def train_online(examples):
    """The streaming half: prequential training of the churn model."""
    model = OnlineLogisticRegression(learning_rate=0.15, l2=0.001)
    evaluator = PrequentialEvaluator()
    for epoch in range(4):  # small data: a few passes simulate history
        for example in examples:
            probability = model.update(example.features, example.label)
            if epoch == 3:  # judge only the final, warmed-up pass
                evaluator.record(example.label, probability)
    return model, evaluator


def main():
    examples = build_feature_examples()
    churn_rate = sum(e.label for e in examples) / len(examples)
    print("examples: %d, churn rate: %.2f" % (len(examples), churn_rate))

    model, evaluator = train_online(examples)
    print("prequential AUC:       %.3f" % evaluator.auc())
    print("prequential accuracy:  %.3f" % evaluator.accuracy())
    print("prequential log loss:  %.3f" % evaluator.log_loss())

    print("\nmost churn-indicative features (weight):")
    for name, weight in sorted(model.weights.items(),
                               key=lambda kv: -abs(kv[1]))[:4]:
        print("  %-16s %+.3f" % (name, weight))

    # Score a fresh at-risk profile in real time.
    at_risk = {"events_per_day": 0.5, "purchase_rate": 0.0,
               "support_rate": 0.5, "avg_dwell_s": 1.0,
               "recency_days": 6.0, "bias_proxy": 1.0}
    healthy = {"events_per_day": 9.0, "purchase_rate": 0.2,
               "support_rate": 0.02, "avg_dwell_s": 8.0,
               "recency_days": 0.1, "bias_proxy": 1.0}
    print("\nlive scoring:")
    print("  at-risk user churn probability: %.2f"
          % model.predict_proba(at_risk))
    print("  healthy user churn probability: %.2f"
          % model.predict_proba(healthy))


if __name__ == "__main__":
    main()
