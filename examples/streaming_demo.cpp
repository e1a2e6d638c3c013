// Streaming demo: the OnlineActor extension as a user would run it — a
// city model that keeps learning as record batches arrive, with old
// co-occurrences fading out (recency-aware, after ReAct [8]).
//
// The demo ingests a day's worth of records at a time, and after each
// "day" asks the model what currently happens around the busiest venue.
//
// Run:  ./streaming_demo [--records=8000] [--days=5]

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "shard/sharded_query_engine.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  actor::Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 8000));
  const int days = static_cast<int>(flags.GetInt("days", 5));

  // A corpus ordered by timestamp, split into per-"day" batches.
  actor::SyntheticConfig config = actor::TweetLikeConfig(0.3);
  config.num_records = records;
  auto dataset = actor::GenerateSynthetic(config, "stream");
  dataset.status().CheckOK();
  actor::CorpusBuildOptions build;
  auto corpus = actor::TokenizedCorpus::Build(dataset->corpus, build);
  corpus.status().CheckOK();
  std::vector<actor::TokenizedRecord> ordered(corpus->records());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.timestamp < b.timestamp;
            });

  actor::OnlineActorOptions options;
  options.dim = 32;
  options.decay_per_batch = 0.8;
  auto model = actor::OnlineActor::Create(options);
  model.status().CheckOK();

  // The busiest venue, for the recurring query.
  std::vector<int> counts(dataset->truth.venue_locations.size(), 0);
  for (int v : dataset->truth.record_venues) ++counts[v];
  const int busiest = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const actor::GeoPoint venue = dataset->truth.venue_locations[busiest];
  std::printf("watching venue '%s' at (%.1f, %.1f)\n\n",
              dataset->truth.venue_keywords[busiest].c_str(), venue.x,
              venue.y);

  const std::size_t per_day = ordered.size() / days;
  for (int day = 0; day < days; ++day) {
    const std::size_t lo = day * per_day;
    const std::size_t hi =
        day + 1 == days ? ordered.size() : lo + per_day;
    std::vector<actor::TokenizedRecord> batch(ordered.begin() + lo,
                                              ordered.begin() + hi);
    model->Ingest(batch).CheckOK();

    // "What happens around the venue right now?" — publish the current
    // model and ask for the word units nearest the venue's (possibly newly
    // spawned) spatial unit.
    std::printf("after day %d (%d units, %zu live edges): ", day,
                model->num_units(), model->num_live_edges());
    if (model->SpatialUnit(venue) == actor::kInvalidVertex) {
      std::printf("venue not seen yet\n");
      continue;
    }
    actor::ShardedQueryEngine engine(model->PublishShardedSnapshot());
    auto nearest = engine.QueryByLocation(venue, actor::VertexType::kWord, 4);
    nearest.status().CheckOK();
    // Map unit ids back to readable keywords via the shared vocabulary.
    std::unordered_map<actor::VertexId, int32_t> unit_to_word;
    for (int32_t w = 0; w < corpus->vocab().size(); ++w) {
      const actor::VertexId v = model->WordUnit(w);
      if (v != actor::kInvalidVertex) unit_to_word.emplace(v, w);
    }
    for (const actor::Neighbor& n : *nearest) {
      auto it = unit_to_word.find(n.vertex);
      const std::string label = it != unit_to_word.end()
                                    ? corpus->vocab().word(it->second)
                                    : n.name;
      std::printf("%s(%.2f) ", label.c_str(), n.similarity);
    }
    std::printf("\n");
  }
  return 0;
}
