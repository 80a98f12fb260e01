#include "serve/genload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "core/parse.hpp"
#include "stats/rng.hpp"

namespace san::serve {
namespace {

using core::append_double;
using core::append_u64;

[[noreturn]] void bad_option(const char* what) {
  throw std::invalid_argument(std::string("genload: ") + what);
}

void validate(const GenloadOptions& o) {
  if (o.nodes == 0) bad_option("nodes must be > 0");
  if (!(o.zipf >= 0.0)) bad_option("zipf must be >= 0");
  if (!(o.horizon > 0.0)) bad_option("horizon must be > 0");
  if (!(o.now_fraction >= 0.0 && o.now_fraction <= 1.0)) {
    bad_option("now fraction must be in [0, 1]");
  }
  if (!(o.ingest_fraction >= 0.0 && o.ingest_fraction <= 1.0)) {
    bad_option("ingest fraction must be in [0, 1]");
  }
  double total = 0.0;
  for (const double w : o.mix) {
    if (!(w >= 0.0)) bad_option("mix weights must be >= 0");
    total += w;
  }
  if (!(total > 0.0)) bad_option("mix weights must not all be zero");
}

/// Zipf sampler over ranks [0, n): rank r drawn ∝ (r+1)^-theta, ranks
/// mapped to ids by a seeded Fisher-Yates shuffle so popular users are
/// scattered across the id space instead of clustering at id 0.
class ZipfUsers {
 public:
  ZipfUsers(std::size_t n, double theta, stats::Rng perm_rng) : ids_(n) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -theta);
      cdf_.push_back(total);
    }
    for (std::size_t i = 0; i < n; ++i) ids_[i] = static_cast<NodeId>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(ids_[i - 1], ids_[perm_rng.uniform_index(i)]);
    }
  }

  NodeId draw(stats::Rng& rng) const {
    const double u = rng.uniform() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), ids_.size() - 1);
    return ids_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<NodeId> ids_;
};

/// One arrival time in [0, horizon] under the requested process.
double draw_arrival(const GenloadOptions& o, stats::Rng& rng,
                    double& burst_center) {
  switch (o.arrival) {
    case ArrivalModel::kUniform:
      return o.horizon * rng.uniform();
    case ArrivalModel::kDiurnal: {
      // Thinning: flat proposals accepted with the within-day intensity
      // (1 + 0.8 sin(2π t)) / 1.8, peaking mid-day.
      for (;;) {
        const double t = o.horizon * rng.uniform();
        const double accept =
            (1.0 + 0.8 * std::sin(2.0 * std::numbers::pi * t)) / 1.8;
        if (rng.uniform() < accept) return t;
      }
    }
    case ArrivalModel::kBursty: {
      // Events cluster behind uniformly placed burst centers; a new
      // center opens with probability 1/8 (mean burst length 8) and
      // events trail it by a short exponential offset.
      if (burst_center < 0.0 || rng.uniform() < 0.125) {
        burst_center = o.horizon * rng.uniform();
      }
      const double t = burst_center + rng.exponential(8.0);
      return std::min(t, o.horizon);
    }
  }
  return 0.0;
}

QueryKind draw_kind(const std::array<double, kQueryKindCount>& mix,
                    double total, stats::Rng& rng) {
  double u = rng.uniform() * total;
  for (std::size_t k = 0; k < kQueryKindCount; ++k) {
    u -= mix[k];
    if (u < 0.0) return static_cast<QueryKind>(k);
  }
  return static_cast<QueryKind>(kQueryKindCount - 1);
}

const char* arrival_name(ArrivalModel arrival) {
  switch (arrival) {
    case ArrivalModel::kUniform:
      return "uniform";
    case ArrivalModel::kDiurnal:
      return "diurnal";
    case ArrivalModel::kBursty:
      return "bursty";
  }
  return "?";
}

}  // namespace

bool parse_arrival(const char* text, ArrivalModel& out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "uniform") == 0) out = ArrivalModel::kUniform;
  else if (std::strcmp(text, "diurnal") == 0) out = ArrivalModel::kDiurnal;
  else if (std::strcmp(text, "bursty") == 0) out = ArrivalModel::kBursty;
  else return false;
  return true;
}

bool parse_mix(const char* text, std::array<double, kQueryKindCount>& out) {
  if (text == nullptr || *text == '\0') return false;
  std::array<double, kQueryKindCount> mix{};
  const std::string spec(text);
  std::size_t pos = 0;
  double total = 0.0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) return false;
    const std::string name = item.substr(0, colon);
    double weight = 0.0;
    if (!core::parse_double_strict(item.c_str() + colon + 1, weight) ||
        !(weight >= 0.0)) {
      return false;
    }
    bool known = false;
    for (std::size_t k = 0; k < kQueryKindCount; ++k) {
      if (name == to_string(static_cast<QueryKind>(k))) {
        mix[k] = weight;
        known = true;
        break;
      }
    }
    if (!known) return false;
    total += weight;
    pos = comma + 1;
  }
  if (!(total > 0.0)) return false;
  out = mix;
  return true;
}

std::string generate_workload(const GenloadOptions& options) {
  validate(options);
  stats::Rng rng(options.seed);
  stats::Rng perm_rng = rng.split();
  stats::Rng time_rng = rng.split();
  stats::Rng step_rng = rng.split();
  const ZipfUsers users(options.nodes, options.zipf, perm_rng);
  double mix_total = 0.0;
  for (const double w : options.mix) mix_total += w;

  // Arrival times are drawn i.i.d. from the requested process, then
  // sorted: the emitted trace is time-ordered, which live replay requires
  // (ingest tips must advance) and serve benefits from (day locality).
  std::vector<double> times(options.queries);
  double burst_center = -1.0;
  for (double& t : times) t = draw_arrival(options, time_rng, burst_center);
  std::sort(times.begin(), times.end());

  std::string out = "# genload queries=";
  append_u64(out, options.queries);
  out += " nodes=";
  append_u64(out, options.nodes);
  out += " seed=";
  append_u64(out, options.seed);
  out += " zipf=";
  append_double(out, options.zipf);
  out += " horizon=";
  append_double(out, options.horizon);
  out += " arrival=";
  out += arrival_name(options.arrival);
  out += " now=";
  append_double(out, options.now_fraction);
  out += " ingest=";
  append_double(out, options.ingest_fraction);
  out += '\n';

  double last_tip = 0.0;
  for (const double t : times) {
    if (options.ingest_fraction > 0.0 &&
        step_rng.bernoulli(options.ingest_fraction) && t > last_tip) {
      // Strictly advancing tips only: an arrival that ties the current
      // tip falls through to a query instead.
      out += "ingest ";
      append_double(out, t);
      out += '\n';
      last_tip = t;
      continue;
    }
    const QueryKind kind = draw_kind(options.mix, mix_total, step_rng);
    const bool now = step_rng.bernoulli(options.now_fraction);
    out += to_string(kind);
    out += ' ';
    if (now) {
      out += "now";
    } else {
      append_double(out, std::floor(t));  // snapshot-day grid
    }
    switch (kind) {
      case QueryKind::kLinkRec:
      case QueryKind::kAttrInfer:
        out += ' ';
        append_u64(out, users.draw(step_rng));
        out += ' ';
        append_u64(out, 1 + step_rng.uniform_index(20));
        break;
      case QueryKind::kEgoMetrics:
      case QueryKind::kSybil:
      case QueryKind::kCommunity:
        out += ' ';
        append_u64(out, users.draw(step_rng));
        break;
      case QueryKind::kReciprocity:
        out += ' ';
        append_u64(out, users.draw(step_rng));
        out += ' ';
        append_u64(out, users.draw(step_rng));
        break;
      case QueryKind::kInfluence: {
        out += ' ';
        append_u64(out, 1 + step_rng.uniform_index(4));
        const std::uint64_t seeds = step_rng.uniform_index(4);
        for (std::uint64_t s = 0; s < seeds; ++s) {
          out += ' ';
          append_u64(out, users.draw(step_rng));
        }
        break;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace san::serve
