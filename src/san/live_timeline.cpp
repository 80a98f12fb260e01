#include "san/live_timeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace san {
namespace {

[[noreturn]] void bad_batch(const char* what) {
  throw std::invalid_argument(std::string("LiveTimeline::ingest: ") + what);
}

}  // namespace

LiveTimeline::LiveTimeline(const SocialAttributeNetwork& seed,
                           LiveTimelineOptions options)
    : log_(seed), timeline_(log_) {
  tip_ = std::isnan(options.initial_tip) ? timeline_.max_time()
                                         : options.initial_tip;
  std::lock_guard<std::mutex> lock(mutex_);
  publish_locked(0);  // epoch 0: the seed's complete snapshot
}

double LiveTimeline::ingest(const IngestBatch& batch) {
  obs::TraceSpan ingest_span("live.ingest");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!std::isfinite(batch.tip)) bad_batch("tip must be finite");
  if (batch.tip <= tip_) {
    bad_batch("tip must be a number strictly after the current tip");
  }

  // Validate before any mutation so a throw leaves the log unchanged.
  std::vector<double>& joins = joins_scratch_;
  joins.assign(batch.social_nodes.begin(), batch.social_nodes.end());
  std::stable_sort(joins.begin(), joins.end());
  for (const double t : joins) {
    if (std::isnan(t)) bad_batch("NaN social node join time");
  }
  if (!joins.empty() && log_.social_node_count() > 0 &&
      joins.front() < log_.social_node_times().back()) {
    bad_batch("social node join times must not precede already-logged joins");
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

  // Any event landing at or before the previous tip sits inside the
  // already-applied region of the indexed log, which the Materializer's
  // delta state cannot express — such a batch pays one full tip rebuild.
  const double prev_tip = tip_;
  bool late = false;

  for (const double t : joins) {
    log_.add_social_node(t);
    ++stats_.ingested_nodes;
  }
  for (const auto& a : batch.attribute_nodes) {
    log_.add_attribute_node(a.type, a.name, a.time);
    ++stats_.ingested_attribute_nodes;
    late |= a.time <= prev_tip;
  }

  const std::size_t n_social = log_.social_node_count();
  const std::size_t n_attr = log_.attribute_node_count();
  const auto apply_social = [&](const TimedSocialEdge& e) {
    if (!log_.add_social_link(e.src, e.dst, e.time)) {
      ++stats_.rejected_links;  // duplicate or self-link
      return false;
    }
    ++stats_.ingested_links;
    late |= e.time <= prev_tip;
    return true;
  };
  const auto apply_attr = [&](const TimedAttributeLink& link) {
    if (!log_.add_attribute_link(link.user, link.attr, link.time)) {
      ++stats_.rejected_links;
      return false;
    }
    ++stats_.ingested_attribute_links;
    late |= link.time <= prev_tip;
    return true;
  };

  // Held links whose missing endpoint id appeared activate first (they
  // were admitted earlier), then the batch's own links.
  std::size_t w = 0;
  for (const auto& e : pending_social_) {
    if (e.src < n_social && e.dst < n_social) {
      if (apply_social(e)) ++stats_.activated_links;
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
      apply_social(e);
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

  // Ingest-to-publish latency runs from here, the batch's admission, to
  // its epoch becoming visible.
  const std::uint64_t admitted_ns = obs::timing_enabled() ? obs::now_ns() : 0;

  // Index the new events off the serve path — readers keep loading the
  // published epoch until the publish below.
  {
    obs::TraceSpan span("live.absorb");
    obs::ScopedTimer timer(absorb_ns_.get());
    timeline_.absorb(log_);
  }
  if (late) {
    // Every slot last produced a time at or before the previous tip, so
    // the late events may sit inside any slot's applied region.
    for (auto& slot : slots_) slot.materializer.invalidate();
    ++stats_.late_batches;
  }
  tip_ = batch.tip;
  ++stats_.batches;
  publish_locked(admitted_ns);
  return tip_;
}

void LiveTimeline::publish_locked(std::uint64_t admitted_ns) {
  // Recycle an epoch buffer no handle references; the currently published
  // one is pinned by the handle in the atomic itself. A buffer's last
  // handle release-stores its idle flag, so this acquire load orders every
  // reader's use of the old epoch before the advance below rewrites it. A
  // new slot's first advance is a full slack build, later ones are deltas.
  EpochSlot* slot = nullptr;
  for (auto& candidate : slots_) {
    if (candidate.idle->load(std::memory_order_acquire)) {
      slot = &candidate;
      break;
    }
  }
  if (slot == nullptr) {
    slot = &slots_.emplace_back(timeline_);
    stats_.epoch_buffers = slots_.size();
  }
  {
    obs::TraceSpan span("live.advance");
    obs::ScopedTimer timer(advance_ns_.get());
    slot->materializer.advance(tip_, *slot->buffer);
  }
  {
    obs::TraceSpan span("live.publish");
    obs::ScopedTimer timer(publish_ns_.get());
    // The handle co-owns the buffer and its flag, so one a reader holds
    // past this LiveTimeline stays valid.
    slot->idle->store(false);
    std::shared_ptr<const SanSnapshot> handle(
        slot->buffer.get(),
        [buffer = slot->buffer, idle = slot->idle](const SanSnapshot*) {
          idle->store(true, std::memory_order_release);
        });
    // libstdc++'s atomic<shared_ptr>::load drops its lock bit with a
    // relaxed RMW, so a reader's tip() does not happen-before this store
    // through the lock. Its reference-count increment (acq_rel) does: a
    // load here acquires it before the pointer is overwritten.
    const auto retired = published_.load(std::memory_order_acquire);
    published_.store(std::move(handle), std::memory_order_release);
  }
  epoch_.store(stats_.epochs, std::memory_order_release);
  ++stats_.epochs;
  record_publish_latency_locked(admitted_ns);
}

void LiveTimeline::record_publish_latency_locked(std::uint64_t admitted_ns) {
  if (!obs::timing_enabled()) {
    last_publish_ns_ = 0;
    return;
  }
  const std::uint64_t now = obs::now_ns();
  if (admitted_ns != 0) ingest_to_publish_ns_->record(now - admitted_ns);
  if (last_publish_ns_ != 0) {
    epoch_gap_ns_->record(now - last_publish_ns_);
  }
  last_publish_ns_ = now;
}

void LiveTimeline::register_metrics(obs::Registry& registry,
                                    const std::string& prefix) const {
  registry.attach_histogram(prefix + ".absorb", absorb_ns_);
  registry.attach_histogram(prefix + ".advance", advance_ns_);
  registry.attach_histogram(prefix + ".publish", publish_ns_);
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
  registry.attach_fn(prefix + ".epoch_buffers", [this] {
    return static_cast<double>(stats().epoch_buffers);
  });
}

std::shared_ptr<const SanSnapshot> LiveTimeline::tip() const {
  return published_.load(std::memory_order_acquire);
}

LiveTimeline::Stats LiveTimeline::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace san
