"""Target advertisement: online CTR prediction plus campaign analytics.

The third STREAMLINE application, combining three data-in-motion pieces:

1. FTRL-proximal CTR model, trained test-then-train on the impression
   stream (the reactive scorer an ad server queries);
2. session windows per user (Cutty-class non-periodic windows) counting
   impressions per browsing session;
3. SpaceSaving heavy hitters for the top clicked campaigns under bounded
   memory.

Run:  python examples/target_advertisement.py
"""

from repro.api import Environment
from repro.cutty import CuttyWindowOperator, SessionWindows
from repro.datagen import AdStreamGenerator
from repro.ml import FTRLProximal, PrequentialEvaluator, SpaceSaving, auc
from repro.windowing import CountAggregate


def train_ctr_model(impressions):
    model = FTRLProximal(alpha=0.3, beta=1.0, l1=0.2, l2=0.2)
    evaluator = PrequentialEvaluator()
    for impression in impressions:
        probability = model.update(impression.features(), impression.clicked)
        evaluator.record(impression.clicked, probability)
    return model, evaluator


def session_analytics(impressions):
    """Per-user session impression counts via the shared Cutty operator."""
    env = Environment()
    events = [((imp.user, 1), imp.timestamp) for imp in impressions]
    keyed = (env.from_collection(events, timestamped=True)
             .key_by(lambda kv: kv[0]))
    node = keyed._connect_keyed(
        "sessions",
        lambda: CuttyWindowOperator(
            aggregate_factory=CountAggregate,
            spec_factories={"session": lambda: SessionWindows(30_000)}))
    from repro.api.stream import DataStream
    sessions = DataStream(env, node).collect()
    env.execute()
    return sessions.get()


def main():
    generator = AdStreamGenerator(num_users=300, num_campaigns=15, seed=99)
    impressions = list(generator.impressions(12000, gap_ms=150))

    model, evaluator = train_ctr_model(impressions)
    warm_labels = evaluator.labels[6000:]
    warm_scores = evaluator.scores[6000:]
    print("impressions:              %d" % len(impressions))
    print("empirical CTR:            %.3f"
          % (sum(i.clicked for i in impressions) / len(impressions)))
    print("hidden-model AUC ceiling: %.3f" % generator.bayes_auc_bound())
    print("FTRL warm AUC:            %.3f" % auc(warm_labels, warm_scores))
    print("FTRL non-zero weights:    %d" % model.nonzero_weights)

    hitters = SpaceSaving(capacity=20)
    for impression in impressions:
        if impression.clicked:
            hitters.add(impression.campaign)
    print("\ntop-5 clicked campaigns (SpaceSaving, 20 counters):")
    for hitter in hitters.top(5):
        print("  %-8s clicks>=%d" % (hitter.key, hitter.guaranteed))

    sessions = session_analytics(impressions)
    lengths = [result.value for result in sessions]
    print("\nuser sessions (gap 30s): %d sessions, mean %.1f impressions"
          % (len(lengths), sum(lengths) / len(lengths)))


if __name__ == "__main__":
    main()
