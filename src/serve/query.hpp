// Typed queries and results for the SAN serving engine. Each query names a
// snapshot time (a day on the workload's shared grid) plus the paper-§7
// application it invokes:
//
//   kLinkRec     top-k friend recommendation (common neighbors +
//                type-weighted shared attributes);
//   kAttrInfer   top-k attribute inference for a user (neighborhood vote);
//   kEgoMetrics  degree/reciprocity/attribute counts of one ego;
//   kReciprocity will the one-directional link src -> dst reciprocate?
//   kSybil       accepted-Sybil bound for USER's region (Fig 19a) on the
//                snapshot's cached degree-bounded topology;
//   kCommunity   USER's label + community size from the snapshot's cached
//                label-propagation run (§3.4);
//   kInfluence   frontier-bounded greedy influence seed selection.
//
// Results render to one stable text line each (to_line): the serving CLI
// prints them and the throughput bench compares batch output byte-for-byte
// against the single-query reference path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/attr_inference.hpp"
#include "apps/influence_max.hpp"
#include "apps/linkpred.hpp"
#include "apps/reciprocity_pred.hpp"
#include "apps/sybil.hpp"
#include "san/san.hpp"

namespace san::serve {

enum class QueryKind : std::uint8_t {
  kLinkRec = 0,
  kAttrInfer = 1,
  kEgoMetrics = 2,
  kReciprocity = 3,
  kSybil = 4,
  kCommunity = 5,
  kInfluence = 6,
};

/// One past the largest QueryKind value — per-kind arrays size to this.
inline constexpr std::size_t kQueryKindCount = 7;

const char* to_string(QueryKind kind);

/// One serving request. `user` is the subject (the link source for
/// kReciprocity, whose target is `other`); `k` caps result size for the
/// top-k kinds and is the pick budget for kInfluence, whose optional
/// given seed set rides in `seeds` (kInfluence has no `user`). The
/// workload time token `now` parses to time = +infinity with `now` set:
/// against a static timeline that resolves to the complete network,
/// against a live binding (SnapshotCache::bind_live) to the latest
/// published ingest epoch.
struct Query {
  QueryKind kind = QueryKind::kEgoMetrics;
  double time = 0.0;
  NodeId user = 0;
  NodeId other = 0;
  std::uint32_t k = 0;
  bool now = false;  // rendering flag: the time came from the `now` token
  std::vector<NodeId> seeds;  // kInfluence: given seeds (may be empty)

  bool operator==(const Query&) const = default;
};

struct EgoMetrics {
  std::uint64_t out_degree = 0;
  std::uint64_t in_degree = 0;
  std::uint64_t degree = 0;         // undirected neighbor count
  std::uint64_t mutual_degree = 0;  // out-links that are reciprocated
  std::uint64_t attribute_count = 0;
  std::uint64_t two_hop_count = 0;  // distinct nodes at distance exactly 2

  bool operator==(const EgoMetrics&) const = default;
};

/// kCommunity payload: the subject's community in the snapshot's cached
/// label-propagation run.
struct CommunityMembership {
  std::uint32_t label = 0;        // dense community id of `user`
  std::uint64_t size = 0;         // members sharing that label
  std::uint64_t communities = 0;  // total communities in the snapshot

  bool operator==(const CommunityMembership&) const = default;
};

/// Result of one query. `ok` is false when the subject does not exist at
/// the requested snapshot time (the payload is then empty); batch and
/// single-query paths produce identical results, rendered identically.
struct QueryResult {
  QueryKind kind = QueryKind::kEgoMetrics;
  bool ok = false;
  std::vector<apps::Recommendation> recommendations;      // kLinkRec
  std::vector<apps::AttributePrediction> predictions;     // kAttrInfer
  EgoMetrics ego;                                         // kEgoMetrics
  apps::ReciprocityScore reciprocity;                     // kReciprocity
  bool link_present = false;   // kReciprocity: u -> v existed at `time`
  bool already_mutual = false; // kReciprocity: v -> u also existed
  apps::SybilLimitResult sybil;                           // kSybil
  CommunityMembership community;                          // kCommunity
  apps::InfluenceResult influence;                        // kInfluence

  bool operator==(const QueryResult&) const = default;

  /// Stable one-line rendering (doubles at max round-trip precision).
  std::string to_line(const Query& query) const;
};

/// Largest `influence` k: greedy cost grows with k, so a bigger one could
/// let one line stall a server.
inline constexpr std::uint32_t kMaxInfluenceK = 64;

/// Parse a workload file of one query per line:
///
///   linkrec   <time> <user> <k>
///   attrs     <time> <user> <k>
///   ego       <time> <user>
///   recip     <time> <src> <dst>
///   sybil     <time> <user>
///   community <time> <user>
///   influence <time> <k> [<seed>...]
///
/// <time> is a snapshot day or the token `now` (the live tip); influence
/// <k> is at most kMaxInfluenceK. Blank lines and lines starting with '#'
/// are skipped. Malformed lines — including `ingest` lines, which only
/// live replay accepts — throw std::invalid_argument naming the line
/// number and the offending token.
std::vector<Query> parse_workload(const std::string& text);

/// parse_workload over the contents of `path` (throws std::runtime_error
/// when the file cannot be read).
std::vector<Query> load_workload(const std::string& path);

/// One step of a live-replay workload (san_tool live): either a query, or
/// an `ingest <tip>` directive that advances the live ingest frontier to
/// <tip> before the following queries run.
struct WorkloadStep {
  bool ingest = false;
  double tip = 0.0;  // ingest target tip (ingest steps only)
  Query query;       // valid when !ingest

  bool operator==(const WorkloadStep&) const = default;
};

/// parse_workload plus `ingest <tip>` lines, in admission order.
std::vector<WorkloadStep> parse_live_workload(const std::string& text);

/// Parse ONE line of the live grammar, the entry point the socket server
/// (serve/server.hpp) uses as lines arrive over a connection. Returns
/// false for blank and comment lines (nothing parsed), true with `step`
/// filled otherwise. Malformed lines throw std::invalid_argument carrying
/// exactly the message parse_live_workload would produce for the same
/// line at position `line_no` — the server echoes it back verbatim, so a
/// socket client sees the same line-numbered diagnostics as file replay.
bool parse_workload_line(const std::string& line, std::size_t line_no,
                         WorkloadStep& step);

/// parse_live_workload over the contents of `path`.
std::vector<WorkloadStep> load_live_workload(const std::string& path);

}  // namespace san::serve
