"""Personalized recommendations: streaming matrix factorisation.

The second STREAMLINE application.  A rating stream flows through the
engine; a keyed co-process keeps the factor model fresh on every event
(no nightly retrain -- the "human latency" the project targets), while a
prequential evaluator tracks out-of-sample RMSE against the global-mean
baseline.

Run:  python examples/recommendations.py
"""

from repro.api import Environment
from repro.datagen import RatingStreamGenerator
from repro.ml import StreamingMatrixFactorization, rmse


def main():
    generator = RatingStreamGenerator(num_users=150, num_items=80,
                                      rank=4, noise=0.25, seed=77)
    ratings = list(generator.ratings(30000))

    model = StreamingMatrixFactorization(factors=8, learning_rate=0.04,
                                         regularization=0.03, seed=77)
    truth, predictions, baseline = [], [], []
    state = {"sum": 0.0, "count": 0}

    def score_and_learn(rating):
        baseline.append(state["sum"] / state["count"]
                        if state["count"] else 3.5)
        predictions.append(model.update(rating.user, rating.item,
                                        rating.value))
        truth.append(rating.value)
        state["sum"] += rating.value
        state["count"] += 1
        return []

    # Run the stream through the engine: the model lives in a sink.
    env = Environment()
    (env.from_collection(ratings)
        .add_sink(lambda rating: score_and_learn(rating)))
    env.execute()

    half = len(truth) // 2
    print("ratings processed:        %d" % len(truth))
    print("noise floor RMSE:         %.3f" % generator.noise_floor_rmse())
    print("global-mean RMSE (warm):  %.3f" % rmse(truth[half:],
                                                  baseline[half:]))
    print("streaming MF RMSE (warm): %.3f" % rmse(truth[half:],
                                                  predictions[half:]))

    # Fresh top-k recommendations straight from the live model.
    catalogue = ["i%d" % i for i in range(generator.num_items)]
    print("\ntop-5 recommendations for user u0:")
    for item, score in model.recommend("u0", catalogue, top_k=5):
        print("  %-6s predicted rating %.2f" % (item, score))


if __name__ == "__main__":
    main()
