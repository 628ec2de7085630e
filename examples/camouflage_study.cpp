// Camouflage study: why the log-weighted density score (Definition 2 /
// FRAUDAR's metric) matters.
//
//   $ ./build/examples/camouflage_study
//
// Fraudsters pad their accounts with purchases at popular legitimate
// merchants so their connectivity "looks normal". This example plants the
// same fraud ring at increasing camouflage levels and measures how well
// ENSEMFDET's vote ranking still separates the ring from honest users —
// the per-edge 1/log(c + d_merchant) discount means camouflage edges to
// popular merchants contribute almost nothing to a block's density, so
// detection should degrade only mildly.
#include <cstdio>
#include <iostream>

#include "core/ensemfdet.h"

using namespace ensemfdet;

namespace {

// Builds a graph with one 25-user × 6-merchant fraud ring, a camouflage
// level (extra popular-merchant edges per fraud user), and background
// traffic. Returns (graph, blacklist of planted users).
struct Scenario {
  CsrGraph graph;
  LabelSet planted;
};

Scenario BuildScenario(double camouflage_per_user, uint64_t seed) {
  DataGenConfig config;
  config.name = "camouflage";
  config.num_users = 3000;
  config.num_merchants = 800;
  config.num_edges = 9000;
  // Milder background skew than the JD presets so the study isolates the
  // camouflage effect rather than hub noise.
  config.user_zipf_exponent = 0.4;
  config.merchant_zipf_exponent = 0.9;
  FraudGroupSpec ring;
  ring.num_users = 60;
  ring.num_merchants = 8;
  ring.edges_per_user = 6.0;
  ring.camouflage_per_user = camouflage_per_user;
  config.fraud_groups.push_back(ring);
  config.blacklist_miss_rate = 0.0;  // exact planted truth for this study
  config.blacklist_noise_rate = 0.0;
  config.seed = seed;

  auto data = GenerateDataset(config).ValueOrDie();
  Scenario s{std::move(data.graph),
             LabelSet(config.num_users, data.planted_fraud_users)};
  return s;
}

}  // namespace

int main() {
  EnsemFDetConfig detector_config;
  detector_config.num_samples = 40;
  detector_config.ratio = 0.25;
  detector_config.seed = 606;
  detector_config.fdet.max_blocks = 15;

  TableWriter table({"camouflage edges/user", "best F1 over T",
                     "precision@ring-size", "recall@T=1"});

  for (double camouflage : {0.0, 2.0, 5.0, 10.0}) {
    Scenario s = BuildScenario(camouflage, 3555);
    auto report = EnsemFDet(detector_config)
                      .Run(s.graph, &DefaultThreadPool())
                      .ValueOrDie();
    auto points =
        VoteSweep(report.votes, s.planted, detector_config.num_samples);

    double best_f1 = 0.0, recall_loose = 0.0;
    for (const auto& p : points) {
      best_f1 = std::max(best_f1, p.f1);
      if (static_cast<int32_t>(p.control) == 1) recall_loose = p.recall;
    }
    // Precision when detecting exactly about one ring worth of users.
    double precision_at_ring = 0.0;
    int64_t best_gap = INT64_MAX;
    for (const auto& p : points) {
      int64_t gap = std::abs(p.num_detected - 60);
      if (gap < best_gap) {
        best_gap = gap;
        precision_at_ring = p.precision;
      }
    }
    table.AddRow({FormatDouble(camouflage, 1), FormatDouble(best_f1),
                  FormatDouble(precision_at_ring),
                  FormatDouble(recall_loose)});
  }

  std::printf("camouflage resistance of the log-weighted density score\n");
  std::printf("(60-user fraud ring; camouflage = extra edges to popular "
              "legitimate merchants)\n\n");
  table.WriteMarkdown(&std::cout);
  std::printf(
      "\nExpected shape: F1 stays high (it can even rise) as camouflage\n"
      "grows. Camouflage edges point at high-degree merchants whose column\n"
      "weight 1/log(c+d) is tiny, so they barely perturb block density —\n"
      "while the extra degree makes ring users MORE likely to enter each\n"
      "edge sample (Lemma 1), feeding the vote count. Camouflage is not\n"
      "just neutralized, it can backfire.\n");
  return 0;
}
