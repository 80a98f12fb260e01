#include "san/san.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace san {
namespace {

[[noreturn]] void bad_record(const char* section, std::size_t index,
                             const char* reason) {
  throw std::invalid_argument(std::string(section) + ' ' +
                              std::to_string(index) + ": " + reason);
}

/// The log index of the first of `count` records that repeats an earlier
/// record's (key, value) pair, or `count` if none does. lists[k] holds the
/// values of key k's records in log order and key_of(i) is record i's key.
/// One stamp per value id finds each key's first repeat in O(count); only
/// when there is one does a second pass map it back to its log index.
template <typename Value, typename KeyOf>
std::size_t first_repeat(const std::vector<std::vector<Value>>& lists,
                         std::size_t value_count, std::size_t count,
                         KeyOf&& key_of) {
  constexpr auto kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> stamp(value_count, kNone);
  std::vector<std::size_t> repeat_at;  // per key; filled on the first repeat
  for (std::size_t k = 0; k < lists.size(); ++k) {
    const auto& list = lists[k];
    for (std::size_t p = 0; p < list.size(); ++p) {
      if (stamp[list[p]] == k) {
        if (repeat_at.empty()) repeat_at.assign(lists.size(), kNone);
        repeat_at[k] = p;
        break;
      }
      stamp[list[p]] = k;
    }
  }
  if (repeat_at.empty()) return count;
  std::vector<std::size_t> seen(lists.size(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = key_of(i);
    if (seen[k]++ == repeat_at[k]) return i;
  }
  return count;
}

}  // namespace

std::string to_string(AttributeType type) {
  switch (type) {
    case AttributeType::kSchool:
      return "School";
    case AttributeType::kMajor:
      return "Major";
    case AttributeType::kEmployer:
      return "Employer";
    case AttributeType::kCity:
      return "City";
    case AttributeType::kOther:
      return "Other";
  }
  return "Unknown";
}

SocialAttributeNetwork SocialAttributeNetwork::from_logs(SanColumns columns) {
  const std::size_t n = columns.social_times.size();
  const std::size_t m = columns.attribute_times.size();
  if (columns.attribute_types.size() != m ||
      columns.attribute_names.size() != m) {
    throw std::invalid_argument(
        "from_logs: attribute catalog columns differ in length");
  }
  const auto& times = columns.social_times;
  for (std::size_t u = 1; u < n; ++u) {
    if (times[u] < times[u - 1]) {
      bad_record("social_nodes", u, "decreasing join time");
    }
  }

  // Each section: find its first unknown id or self link, fill the
  // per-node lists in log order up to it (reserved from exact counts),
  // then report whichever comes first, that record or a repeated link.
  const auto& social = columns.social_log;
  std::size_t social_end = social.size();
  const char* social_fault = nullptr;
  std::vector<std::vector<NodeId>> out(n), in(n);
  {
    std::vector<std::size_t> out_count(n, 0), in_count(n, 0);
    for (std::size_t i = 0; i < social.size(); ++i) {
      const auto& e = social[i];
      if (e.src >= n || e.dst >= n || e.src == e.dst) {
        social_end = i;
        social_fault =
            e.src >= n || e.dst >= n ? "unknown node id" : "self link";
        break;
      }
      ++out_count[e.src];
      ++in_count[e.dst];
    }
    for (std::size_t u = 0; u < n; ++u) {
      out[u].reserve(out_count[u]);
      in[u].reserve(in_count[u]);
    }
  }
  for (std::size_t i = 0; i < social_end; ++i) {
    out[social[i].src].push_back(social[i].dst);
    in[social[i].dst].push_back(social[i].src);
  }
  const std::size_t social_repeat = first_repeat(
      out, n, social_end, [&](std::size_t i) { return social[i].src; });
  if (social_repeat < social_end) {
    bad_record("social_links", social_repeat, "duplicate link");
  }
  if (social_fault != nullptr) {
    bad_record("social_links", social_end, social_fault);
  }

  const auto& links = columns.attribute_log;
  std::size_t links_end = links.size();
  const char* links_fault = nullptr;
  std::vector<std::vector<AttrId>> attributes(n);
  std::vector<std::vector<NodeId>> members(m);
  {
    std::vector<std::size_t> user_count(n, 0), member_count(m, 0);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (links[i].user >= n || links[i].attr >= m) {
        links_end = i;
        links_fault = links[i].user >= n ? "unknown social node"
                                         : "unknown attribute id";
        break;
      }
      ++user_count[links[i].user];
      ++member_count[links[i].attr];
    }
    for (std::size_t u = 0; u < n; ++u) attributes[u].reserve(user_count[u]);
    for (std::size_t a = 0; a < m; ++a) members[a].reserve(member_count[a]);
  }
  for (std::size_t i = 0; i < links_end; ++i) {
    attributes[links[i].user].push_back(links[i].attr);
    members[links[i].attr].push_back(links[i].user);
  }
  const std::size_t links_repeat = first_repeat(
      attributes, m, links_end, [&](std::size_t i) { return links[i].user; });
  if (links_repeat < links_end) {
    bad_record("attribute_links", links_repeat, "duplicate link");
  }
  if (links_fault != nullptr) {
    bad_record("attribute_links", links_end, links_fault);
  }
  for (auto& run : attributes) std::sort(run.begin(), run.end());

  SocialAttributeNetwork net;
  net.social_ = graph::Digraph(std::move(out), std::move(in));
  net.social_times_ = std::move(columns.social_times);
  net.members_ = std::move(members);
  net.attributes_ = std::move(attributes);
  net.attr_types_ = std::move(columns.attribute_types);
  net.attr_names_ = std::move(columns.attribute_names);
  net.attribute_times_ = std::move(columns.attribute_times);
  net.social_log_ = std::move(columns.social_log);
  net.attribute_log_ = std::move(columns.attribute_log);
  return net;
}

NodeId SocialAttributeNetwork::add_social_node(double time) {
  if (!social_times_.empty() && time < social_times_.back()) {
    throw std::invalid_argument(
        "SocialAttributeNetwork: social node join times must be "
        "non-decreasing");
  }
  const NodeId id = social_.add_node();
  social_times_.push_back(time);
  attributes_.emplace_back();
  return id;
}

AttrId SocialAttributeNetwork::add_attribute_node(AttributeType type,
                                                  std::string name,
                                                  double time) {
  members_.emplace_back();
  attr_types_.push_back(type);
  attr_names_.push_back(std::move(name));
  attribute_times_.push_back(time);
  return static_cast<AttrId>(members_.size() - 1);
}

bool SocialAttributeNetwork::add_social_link(NodeId u, NodeId v, double time) {
  if (!social_.add_edge(u, v)) return false;
  social_log_.push_back({u, v, time});
  return true;
}

bool SocialAttributeNetwork::add_attribute_link(NodeId u, AttrId a,
                                                double time) {
  if (u >= social_node_count()) {
    throw std::out_of_range("add_attribute_link: unknown social node");
  }
  check_attr(a);
  auto& attrs = attributes_[u];
  const auto it = std::lower_bound(attrs.begin(), attrs.end(), a);
  if (it != attrs.end() && *it == a) return false;
  attrs.insert(it, a);
  members_[a].push_back(u);
  attribute_log_.push_back({u, a, time});
  return true;
}

std::span<const AttrId> SocialAttributeNetwork::attributes_of(NodeId u) const {
  if (u >= social_node_count()) {
    throw std::out_of_range("attributes_of: unknown social node");
  }
  return attributes_[u];
}

std::span<const NodeId> SocialAttributeNetwork::members_of(AttrId a) const {
  check_attr(a);
  return members_[a];
}

bool SocialAttributeNetwork::has_attribute(NodeId u, AttrId a) const {
  const auto attrs = attributes_of(u);
  return std::binary_search(attrs.begin(), attrs.end(), a);
}

std::size_t SocialAttributeNetwork::common_attributes(NodeId u,
                                                      NodeId v) const {
  const auto au = attributes_of(u);
  const auto av = attributes_of(v);
  std::size_t count = 0;
  auto iu = au.begin();
  auto iv = av.begin();
  while (iu != au.end() && iv != av.end()) {
    if (*iu < *iv) {
      ++iu;
    } else if (*iv < *iu) {
      ++iv;
    } else {
      ++count;
      ++iu;
      ++iv;
    }
  }
  return count;
}

AttributeType SocialAttributeNetwork::attribute_type(AttrId a) const {
  check_attr(a);
  return attr_types_[a];
}

const std::string& SocialAttributeNetwork::attribute_name(AttrId a) const {
  check_attr(a);
  return attr_names_[a];
}

double SocialAttributeNetwork::social_node_time(NodeId u) const {
  if (u >= social_node_count()) {
    throw std::out_of_range("social_node_time: unknown social node");
  }
  return social_times_[u];
}

double SocialAttributeNetwork::attribute_node_time(AttrId a) const {
  check_attr(a);
  return attribute_times_[a];
}

void SocialAttributeNetwork::check_attr(AttrId a) const {
  if (a >= members_.size()) {
    throw std::out_of_range("SocialAttributeNetwork: unknown attribute id");
  }
}

}  // namespace san
