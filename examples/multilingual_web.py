"""Multilingual Web processing: language identification + per-language
analytics, in one dataflow.

The fourth STREAMLINE application: a stream of Web documents is
language-identified on the fly, routed by language (keyBy), and
aggregated per language in tumbling windows -- while the same run keeps
a per-language term-frequency profile for the top words.

Run:  python examples/multilingual_web.py
"""

from collections import Counter, defaultdict

from repro.api import Environment
from repro.datagen import DocumentStreamGenerator
from repro.ml import LanguageIdentifier, remove_stopwords, tokenize
from repro.windowing import CountAggregate, TumblingEventTimeWindows


def main():
    generator = DocumentStreamGenerator(words_per_doc=25, seed=13)
    documents = list(generator.documents(600, gap_ms=250))
    identifier = LanguageIdentifier()

    term_profiles = defaultdict(Counter)
    outcomes = {"correct": 0, "total": 0}

    def identify(document):
        language = identifier.identify(document.text)
        outcomes["total"] += 1
        if language == document.language:
            outcomes["correct"] += 1
        tokens = remove_stopwords(tokenize(document.text), language)
        term_profiles[language].update(tokens)
        return (language, document)

    env = Environment()
    per_language = (
        env.from_collection([(d, d.timestamp) for d in documents],
                            timestamped=True)
        .map(identify, name="identify-language")
        .key_by(lambda pair: pair[0])
        .window(TumblingEventTimeWindows.of(30_000))
        .aggregate(CountAggregate(), name="docs-per-language-30s")
        .collect())
    env.execute()

    print("documents processed:  %d" % outcomes["total"])
    print("identification rate:  %.3f"
          % (outcomes["correct"] / outcomes["total"]))

    print("\ndocuments per language per 30s window (first 2 windows):")
    windows = sorted(per_language.get(),
                     key=lambda r: (r.window.start, r.key))
    for result in [r for r in windows if r.window.start < 60_000]:
        print("  [%6d, %6d)  %-3s %d"
              % (result.window.start, result.window.end, result.key,
                 result.value))

    print("\ntop terms per language:")
    for language in sorted(term_profiles):
        top = ", ".join(word for word, _ in
                        term_profiles[language].most_common(4))
        print("  %-3s %s" % (language, top))


if __name__ == "__main__":
    main()
