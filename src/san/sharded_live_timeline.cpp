#include "san/sharded_live_timeline.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace san {
namespace {

[[noreturn]] void bad_batch(const char* what) {
  throw std::invalid_argument(std::string("ShardedLiveTimeline::ingest: ") +
                              what);
}

}  // namespace

// Per-shard state. `mutex` guards everything below it except the inbox,
// which has its own leaf lock so meta admission can fan a join out to a
// shard that is mid-application without waiting for it.
struct ShardedLiveTimeline::Shard {
  std::mutex mutex;
  std::mutex inbox_mutex;
  std::vector<double> inbox;          // joins admitted, not yet applied
  std::vector<double> inbox_scratch;  // drain buffer, reused
  // All joins + owned social links, no attribute events: the shard's
  // slice of the merged log.
  SocialAttributeNetwork log;
  std::unique_ptr<SanTimeline> timeline;
  std::unique_ptr<SanTimeline::Materializer> mat;
  SanSnapshot work;  // slack-layout snapshot of the owned rows
  double applied_time = 0.0;
  std::uint64_t ingested_links = 0;
  std::uint64_t rejected_links = 0;
  std::uint64_t late_applies = 0;
};

ShardedLiveTimeline::ShardedLiveTimeline(const SocialAttributeNetwork& seed,
                                         ShardedLiveTimelineOptions options)
    : options_(options) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardedLiveTimeline: shards must be >= 1");
  }
  if (options_.batches_per_epoch == 0) {
    throw std::invalid_argument(
        "ShardedLiveTimeline: batches_per_epoch must be >= 1");
  }
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Partition the seed: joins fan out to every shard, social links to
  // their owner, the whole attribute layer to the meta network.
  for (const double t : seed.social_node_times()) {
    attr_net_.add_social_node(t);
    for (auto& shard : shards_) shard->log.add_social_node(t);
  }
  for (AttrId a = 0; a < seed.attribute_node_count(); ++a) {
    attr_net_.add_attribute_node(seed.attribute_type(a),
                                 seed.attribute_name(a),
                                 seed.attribute_node_time(a));
  }
  for (const auto& e : seed.social_log()) {
    shards_[owner_of(e.src)]->log.add_social_link(e.src, e.dst, e.time);
  }
  for (const auto& link : seed.attribute_log()) {
    attr_net_.add_attribute_link(link.user, link.attr, link.time);
  }
  attr_timeline_ = std::make_unique<SanTimeline>(attr_net_);
  attr_mat_ = std::make_unique<SanTimeline::Materializer>(*attr_timeline_);
  double max_time = attr_timeline_->max_time();
  for (auto& shard : shards_) {
    shard->timeline = std::make_unique<SanTimeline>(shard->log);
    shard->mat = std::make_unique<SanTimeline::Materializer>(*shard->timeline);
    max_time = std::max(max_time, shard->timeline->max_time());
  }
  frontier_ = std::isnan(options_.initial_tip) ? max_time
                                               : options_.initial_tip;
  std::lock_guard<std::mutex> lock(meta_mutex_);
  stitch_and_publish_locked();  // epoch 0: the seed's stitched snapshot
}

ShardedLiveTimeline::~ShardedLiveTimeline() = default;

double ShardedLiveTimeline::ingest(const IngestBatch& batch) {
  obs::TraceSpan ingest_span("live.ingest");
  // Per-call routing buffers: writers run Phase B concurrently, so the
  // owner groups cannot live in shared scratch.
  std::vector<std::vector<TimedSocialEdge>> routed(shards_.size());
  bool do_publish = false;
  double frontier_now = 0.0;
  {
    std::lock_guard<std::mutex> lock(meta_mutex_);
    if (!std::isfinite(batch.tip)) bad_batch("tip must be finite");
    if (batch.tip <= published_time_) {
      bad_batch("tip must be a number strictly after the published epoch");
    }

    // Validate before any mutation so a throw admits nothing anywhere.
    std::vector<double>& joins = joins_scratch_;
    joins.assign(batch.social_nodes.begin(), batch.social_nodes.end());
    std::stable_sort(joins.begin(), joins.end());
    for (const double t : joins) {
      if (std::isnan(t)) bad_batch("NaN social node join time");
    }
    if (!joins.empty() && attr_net_.social_node_count() > 0 &&
        joins.front() < attr_net_.social_node_times().back()) {
      bad_batch(
          "social node join times must not precede already-logged joins");
    }
    for (const auto& a : batch.attribute_nodes) {
      if (std::isnan(a.time)) bad_batch("NaN attribute node time");
    }
    for (const auto& e : batch.social_links) {
      if (std::isnan(e.time)) bad_batch("NaN social link time");
    }
    for (const auto& link : batch.attribute_links) {
      if (std::isnan(link.time)) bad_batch("NaN attribute link time");
    }

    // Ingest-to-publish latency starts at the first batch admitted into an
    // unpublished state (the meta mutex makes the 0-check race-free).
    if (obs::timing_enabled() && pending_since_ns_ == 0) {
      pending_since_ns_ = obs::now_ns();
    }

    version_.fetch_add(1, std::memory_order_acq_rel);
    for (const double t : joins) {
      attr_net_.add_social_node(t);
      ++stats_.ingested_nodes;
    }
    if (!joins.empty()) {
      for (auto& shard : shards_) {
        std::lock_guard<std::mutex> inbox_lock(shard->inbox_mutex);
        shard->inbox.insert(shard->inbox.end(), joins.begin(), joins.end());
      }
    }
    for (const auto& a : batch.attribute_nodes) {
      attr_net_.add_attribute_node(a.type, a.name, a.time);
      ++stats_.ingested_attribute_nodes;
      attr_late_ |= a.time <= published_time_;
    }

    const std::size_t n_social = attr_net_.social_node_count();
    const std::size_t n_attr = attr_net_.attribute_node_count();
    const auto apply_attr = [&](const TimedAttributeLink& link) {
      if (!attr_net_.add_attribute_link(link.user, link.attr, link.time)) {
        ++stats_.rejected_links;
        return false;
      }
      ++stats_.ingested_attribute_links;
      attr_late_ |= link.time <= published_time_;
      return true;
    };

    // Held links whose missing endpoint appeared activate first (they
    // were admitted earlier), then the batch's own links.
    std::size_t w = 0;
    for (const auto& e : pending_social_) {
      if (e.src < n_social && e.dst < n_social) {
        routed[owner_of(e.src)].push_back(e);
        ++stats_.activated_links;
      } else {
        pending_social_[w++] = e;
      }
    }
    pending_social_.resize(w);
    w = 0;
    for (const auto& link : pending_attr_) {
      if (link.user < n_social && link.attr < n_attr) {
        if (apply_attr(link)) ++stats_.activated_links;
      } else {
        pending_attr_[w++] = link;
      }
    }
    pending_attr_.resize(w);

    for (const auto& e : batch.social_links) {
      if (e.src >= n_social || e.dst >= n_social) {
        pending_social_.push_back(e);  // id not created yet: hold
      } else {
        routed[owner_of(e.src)].push_back(e);
      }
    }
    for (const auto& link : batch.attribute_links) {
      if (link.user >= n_social || link.attr >= n_attr) {
        pending_attr_.push_back(link);
      } else {
        apply_attr(link);
      }
    }
    stats_.pending_links = pending_social_.size() + pending_attr_.size();

    frontier_ = std::max(frontier_, batch.tip);
    frontier_now = frontier_;
    ++stats_.batches;
    do_publish = ++batches_since_publish_ >= options_.batches_per_epoch;
  }

  // Phase B: apply each owner group under that shard's mutex only —
  // groups bound for different shards absorb and advance in parallel
  // across writers. Ascending order keeps the lock hierarchy acyclic.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (routed[s].empty()) continue;
    std::lock_guard<std::mutex> shard_lock(shards_[s]->mutex);
    apply_shard(*shards_[s], routed[s], batch.tip);
  }
  if (do_publish) publish();
  return frontier_now;
}

// Requires shard.mutex held. Joins land first (the inbox preserves
// global admission order), then the routed links; the shard's columnar
// index absorbs the new log suffix and the work snapshot advances — the
// same absorb/invalidate/advance discipline as LiveTimeline::ingest, per
// shard.
void ShardedLiveTimeline::apply_shard(Shard& shard,
                                      std::span<const TimedSocialEdge> links,
                                      double tip) {
  obs::TraceSpan span("live.apply_shard");
  obs::ScopedTimer timer(apply_ns_.get());
  drain_inbox_locked(shard);
  bool late = false;
  for (const auto& e : links) {
    if (!shard.log.add_social_link(e.src, e.dst, e.time)) {
      ++shard.rejected_links;  // duplicate or self-link
      continue;
    }
    ++shard.ingested_links;
    late |= e.time <= shard.applied_time;
  }
  shard.timeline->absorb(shard.log);
  if (late) {
    shard.mat->invalidate();
    ++shard.late_applies;
  }
  // A concurrent writer with a newer tip may already have advanced this
  // shard past `tip`; never regress.
  const double target = std::max(shard.applied_time, tip);
  shard.mat->advance(target, shard.work);
  shard.applied_time = target;
  version_.fetch_add(1, std::memory_order_acq_rel);
}

void ShardedLiveTimeline::drain_inbox_locked(Shard& shard) {
  {
    std::lock_guard<std::mutex> inbox_lock(shard.inbox_mutex);
    shard.inbox_scratch.swap(shard.inbox);
  }
  for (const double t : shard.inbox_scratch) shard.log.add_social_node(t);
  shard.inbox_scratch.clear();
}

void ShardedLiveTimeline::publish() {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  if (version_.load(std::memory_order_acquire) == stitched_version_) {
    batches_since_publish_ = 0;  // current state already visible
    return;
  }
  stitch_and_publish_locked();
}

// Requires meta_mutex_ held. Takes every shard mutex (ascending) for the
// duration of the stitch: writers stall, readers keep loading the
// previously published epoch untouched.
void ShardedLiveTimeline::stitch_and_publish_locked() {
  obs::TraceSpan span("live.stitch");
  obs::ScopedTimer timer(stitch_ns_.get());
  const double time = frontier_;

  // Attribute side: one absorb + advance of the meta work snapshot.
  attr_timeline_->absorb(attr_net_);
  if (attr_late_) {
    attr_mat_->invalidate();
    ++stats_.late_batches;
    attr_late_ = false;
  }
  attr_mat_->advance(time, attr_work_);

  // Freeze every shard at exactly the epoch time.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    shard_locks.emplace_back(shard->mutex);
    apply_shard(*shard, {}, time);
  }

  // Every shard carries the full join column, so they agree on the node
  // count at `time`.
  const std::size_t n = shards_[0]->work.social.node_count();

  // Offsets: out-degree comes from the owner row, in-degree sums across
  // shards (in-lists partition by source ownership).
  stitch_out_off_.assign(n + 1, 0);
  stitch_in_off_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    stitch_out_off_[u + 1] = shards_[owner_of(u)]->work.social.out(u).size();
    std::uint64_t in_deg = 0;
    for (const auto& shard : shards_) {
      in_deg += shard->work.social.in(u).size();
    }
    stitch_in_off_[u + 1] = in_deg;
  }
  for (NodeId u = 0; u < n; ++u) {
    stitch_out_off_[u + 1] += stitch_out_off_[u];
    stitch_in_off_[u + 1] += stitch_in_off_[u];
  }
  stitch_out_tgt_.resize(stitch_out_off_[n]);
  stitch_in_tgt_.resize(stitch_in_off_[n]);

  // Fill: copy the owned out-row; S-way ascending merge of the per-shard
  // in-lists (disjoint owned source sets, each ascending, so the merged
  // list is the globally ascending in-list — bit-identical to a
  // single-shard build). Chunked on the core substrate: deterministic at
  // any SAN_THREADS, and the per-chunk cursor buffer is hoisted out of
  // the per-node loop.
  const std::size_t n_shards = shards_.size();
  core::parallel_for_chunks(
      n, core::kDefaultGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<std::span<const NodeId>> lists(n_shards);
        for (std::size_t u = begin; u < end; ++u) {
          const auto out = shards_[owner_of(u)]->work.social.out(u);
          std::copy(out.begin(), out.end(),
                    stitch_out_tgt_.begin() +
                        static_cast<std::ptrdiff_t>(stitch_out_off_[u]));
          std::size_t write = stitch_in_off_[u];
          for (std::size_t s = 0; s < n_shards; ++s) {
            lists[s] = shards_[s]->work.social.in(u);
          }
          const std::size_t total = stitch_in_off_[u + 1] - write;
          for (std::size_t taken = 0; taken < total; ++taken) {
            std::size_t best = n_shards;
            for (std::size_t s = 0; s < n_shards; ++s) {
              if (lists[s].empty()) continue;
              if (best == n_shards || lists[s].front() < lists[best].front()) {
                best = s;
              }
            }
            stitch_in_tgt_[write++] = lists[best].front();
            lists[best] = lists[best].subspan(1);
          }
        }
      });

  // Recycle a retired epoch buffer no reader holds; the currently
  // published buffer is pinned by the atomic itself.
  std::shared_ptr<SanSnapshot> buffer;
  for (const auto& candidate : pool_) {
    if (candidate.use_count() == 1) {
      buffer = candidate;
      break;
    }
  }
  if (!buffer) {
    buffer = std::make_shared<SanSnapshot>();
    pool_.push_back(buffer);
  }

  // adopt_sorted_adjacency swaps the target vectors, so the stitch
  // scratch inherits the retired buffer's arrays — zero steady-state
  // allocation, as with LiveTimeline's epoch pool.
  buffer->social.adopt_sorted_adjacency(n, stitch_out_off_, stitch_out_tgt_,
                                        stitch_in_off_, stitch_in_tgt_);
  buffer->attribute = attr_work_.attribute;
  buffer->attribute_types = attr_work_.attribute_types;
  buffer->attribute_created = attr_work_.attribute_created;
  buffer->attribute_link_count = attr_work_.attribute_link_count;
  buffer->created_attribute_count = attr_work_.created_attribute_count;
  // Shard logs carry no attribute events and the meta network carries no
  // social links, so the two dropped counts partition the oracle's.
  buffer->dropped_link_count = attr_work_.dropped_link_count;
  for (const auto& shard : shards_) {
    buffer->dropped_link_count += shard->work.dropped_link_count;
  }
  buffer->time = time;

  published_.store(std::shared_ptr<const SanSnapshot>(buffer),
                   std::memory_order_release);
  epoch_.store(stats_.epochs, std::memory_order_release);
  ++stats_.epochs;
  published_time_ = time;
  batches_since_publish_ = 0;
  stitched_version_ = version_.load(std::memory_order_acquire);

  if (obs::timing_enabled()) {
    const std::uint64_t now = obs::now_ns();
    if (pending_since_ns_ != 0) {
      ingest_to_publish_ns_->record(now - pending_since_ns_);
      pending_since_ns_ = 0;
    }
    if (last_publish_ns_ != 0) epoch_gap_ns_->record(now - last_publish_ns_);
    last_publish_ns_ = now;
  } else {
    pending_since_ns_ = 0;
    last_publish_ns_ = 0;
  }
}

void ShardedLiveTimeline::register_metrics(obs::Registry& registry,
                                           const std::string& prefix) const {
  registry.attach_histogram(prefix + ".apply_shard", apply_ns_);
  registry.attach_histogram(prefix + ".stitch", stitch_ns_);
  registry.attach_histogram(prefix + ".ingest_to_publish",
                            ingest_to_publish_ns_);
  registry.attach_histogram(prefix + ".epoch_gap", epoch_gap_ns_);
  registry.attach_fn(prefix + ".epochs", [this] {
    return static_cast<double>(stats().epochs);
  });
  registry.attach_fn(prefix + ".batches", [this] {
    return static_cast<double>(stats().batches);
  });
  registry.attach_fn(prefix + ".late_batches", [this] {
    return static_cast<double>(stats().late_batches);
  });
  registry.attach_fn(prefix + ".pending_links", [this] {
    return static_cast<double>(stats().pending_links);
  });
  registry.attach_fn(prefix + ".activated_links", [this] {
    return static_cast<double>(stats().activated_links);
  });
  registry.attach_fn(prefix + ".ingested_links", [this] {
    return static_cast<double>(stats().ingested_links);
  });
  registry.attach_fn(prefix + ".rejected_links", [this] {
    return static_cast<double>(stats().rejected_links);
  });
  registry.attach_fn(prefix + ".shards", [this] {
    return static_cast<double>(shard_count());
  });
}

std::shared_ptr<const SanSnapshot> ShardedLiveTimeline::tip() const {
  return published_.load(std::memory_order_acquire);
}

ShardedLiveTimeline::Stats ShardedLiveTimeline::stats() const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  Stats out = stats_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mutex);
    out.ingested_links += shard->ingested_links;
    out.rejected_links += shard->rejected_links;
    out.late_batches += shard->late_applies;
  }
  return out;
}

SocialAttributeNetwork ShardedLiveTimeline::merged_log() const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  SocialAttributeNetwork out;
  for (const double t : attr_net_.social_node_times()) {
    out.add_social_node(t);
  }
  for (AttrId a = 0; a < attr_net_.attribute_node_count(); ++a) {
    out.add_attribute_node(attr_net_.attribute_type(a),
                           attr_net_.attribute_name(a),
                           attr_net_.attribute_node_time(a));
  }
  // Shard concatenation order: per-pair order is shard-local (a pair's
  // copies all live in its owner), so replaying it admits exactly the
  // links the shards admitted. Social CSR content is insensitive to this
  // cross-shard order.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mutex);
    for (const auto& e : shard->log.social_log()) {
      out.add_social_link(e.src, e.dst, e.time);
    }
  }
  for (const auto& link : attr_net_.attribute_log()) {
    out.add_attribute_link(link.user, link.attr, link.time);
  }
  return out;
}

}  // namespace san
