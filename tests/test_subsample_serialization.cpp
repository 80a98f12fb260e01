#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "crawl/gplus_synth.hpp"
#include "model/generator.hpp"
#include "model/zhel.hpp"
#include "san/san.hpp"
#include "san/serialization.hpp"
#include "san/snapshot.hpp"
#include "san/subsample.hpp"
#include "stats/rng.hpp"

namespace {

using san::AttributeType;
using san::load_san;
using san::NodeId;
using san::save_san;
using san::SocialAttributeNetwork;
using san::subsample_attributes;

SocialAttributeNetwork small_san() {
  SocialAttributeNetwork net;
  net.add_social_node(1.0);
  net.add_social_node(1.5);
  net.add_social_node(2.0);
  const auto a = net.add_attribute_node(AttributeType::kEmployer,
                                        "Google Inc.", 1.0);
  const auto b = net.add_attribute_node(AttributeType::kCity, "San Francisco",
                                        1.2);
  net.add_social_link(0, 1, 1.5);
  net.add_social_link(1, 0, 1.6);
  net.add_social_link(2, 0, 2.0);
  net.add_attribute_link(0, a, 1.1);
  net.add_attribute_link(1, b, 1.5);
  net.add_attribute_link(2, b, 2.0);
  return net;
}

TEST(Subsample, KeepAllPreservesEverything) {
  const auto net = small_san();
  const auto copy = subsample_attributes(net, 1.0, 42);
  EXPECT_EQ(copy.attribute_link_count(), net.attribute_link_count());
  EXPECT_EQ(copy.social_link_count(), net.social_link_count());
}

TEST(Subsample, KeepNoneDropsAllAttributeLinks) {
  const auto net = small_san();
  const auto copy = subsample_attributes(net, 0.0, 42);
  EXPECT_EQ(copy.attribute_link_count(), 0u);
  EXPECT_EQ(copy.social_link_count(), net.social_link_count());
  EXPECT_EQ(copy.attribute_node_count(), net.attribute_node_count());
}

TEST(Subsample, HalfKeepsAboutHalf) {
  // Build a larger SAN for a statistical check.
  SocialAttributeNetwork net;
  for (int i = 0; i < 2000; ++i) net.add_social_node(0.0);
  const auto a = net.add_attribute_node(AttributeType::kOther, "g");
  for (NodeId u = 0; u < 2000; ++u) net.add_attribute_link(u, a);
  const auto copy = subsample_attributes(net, 0.5, 7);
  EXPECT_NEAR(static_cast<double>(copy.attribute_link_count()), 1000.0, 80.0);
}

TEST(Subsample, InvalidProbabilityThrows) {
  const auto net = small_san();
  EXPECT_THROW(subsample_attributes(net, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(subsample_attributes(net, 1.1, 1), std::invalid_argument);
}

TEST(Serialization, RoundTripPreservesStructure) {
  const auto net = small_san();
  std::stringstream buffer;
  save_san(net, buffer);
  const auto loaded = load_san(buffer);

  EXPECT_EQ(loaded.social_node_count(), net.social_node_count());
  EXPECT_EQ(loaded.attribute_node_count(), net.attribute_node_count());
  EXPECT_EQ(loaded.social_link_count(), net.social_link_count());
  EXPECT_EQ(loaded.attribute_link_count(), net.attribute_link_count());
  EXPECT_EQ(loaded.attribute_name(0), "Google Inc.");
  EXPECT_EQ(loaded.attribute_name(1), "San Francisco");
  EXPECT_EQ(loaded.attribute_type(1), AttributeType::kCity);
  EXPECT_DOUBLE_EQ(loaded.social_node_time(1), 1.5);
  EXPECT_TRUE(loaded.social().has_edge(0, 1));
  EXPECT_TRUE(loaded.has_attribute(2, 1));

  // Snapshots of original and loaded networks agree.
  const auto s1 = san::snapshot_at(net, 1.5);
  const auto s2 = san::snapshot_at(loaded, 1.5);
  EXPECT_EQ(s1.social_node_count(), s2.social_node_count());
  EXPECT_EQ(s1.social_link_count(), s2.social_link_count());
  EXPECT_EQ(s1.attribute_link_count, s2.attribute_link_count);
}

TEST(Serialization, NamesWithSpacesSurvive) {
  SocialAttributeNetwork net;
  net.add_social_node(0.0);
  net.add_attribute_node(AttributeType::kMajor,
                         "Electrical Engineering and CS");
  net.add_attribute_link(0, 0);
  std::stringstream buffer;
  save_san(net, buffer);
  const auto loaded = load_san(buffer);
  EXPECT_EQ(loaded.attribute_name(0), "Electrical Engineering and CS");
}

TEST(Serialization, EmptyNetworkRoundTrip) {
  const SocialAttributeNetwork net;
  std::stringstream buffer;
  save_san(net, buffer);
  const auto loaded = load_san(buffer);
  EXPECT_EQ(loaded.social_node_count(), 0u);
  EXPECT_EQ(loaded.attribute_node_count(), 0u);
}

TEST(Serialization, RejectsGarbage) {
  std::stringstream bad("not a SAN file");
  EXPECT_THROW(load_san(bad), std::runtime_error);
  std::stringstream truncated("SANv1\nsocial_nodes 5\n1.0\n");
  EXPECT_THROW(load_san(truncated), std::runtime_error);
}

/// load_san's error message for `text`, or "" if it loads.
std::string load_error(const std::string& text) {
  std::stringstream in(text);
  try {
    load_san(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Two social nodes and one attribute node, then the given link sections.
std::string two_user_san(const std::string& social_links,
                         const std::string& attribute_links) {
  return "SANv1\nsocial_nodes 2\n1.0\n2.0\nattribute_nodes 1\n0 1.0 Acme\n" +
         social_links + attribute_links;
}

TEST(Serialization, UnknownLinkSourceNamesTheRecord) {
  const std::string error = load_error(two_user_san(
      "social_links 2\n0 1 1.0\n5 0 2.0\n", "attribute_links 0\n"));
  EXPECT_EQ(error.rfind("load_san: social_links 1: ", 0), 0u) << error;
}

TEST(Serialization, UnknownLinkTargetNamesTheRecord) {
  const std::string error = load_error(two_user_san(
      "social_links 2\n0 1 1.0\n1 7 2.0\n", "attribute_links 0\n"));
  EXPECT_EQ(error.rfind("load_san: social_links 1: ", 0), 0u) << error;
}

TEST(Serialization, UnknownAttributeUserNamesTheRecord) {
  const std::string error = load_error(two_user_san(
      "social_links 0\n", "attribute_links 2\n0 0 1.0\n4 0 2.0\n"));
  EXPECT_EQ(error.rfind("load_san: attribute_links 1: ", 0), 0u) << error;
}

TEST(Serialization, UnknownAttributeIdNamesTheRecord) {
  const std::string error = load_error(two_user_san(
      "social_links 0\n", "attribute_links 2\n0 0 1.0\n1 3 2.0\n"));
  EXPECT_EQ(error.rfind("load_san: attribute_links 1: ", 0), 0u) << error;
}

TEST(Serialization, DuplicateSocialLinkNamesTheRecord) {
  // The reverse link 1 -> 0 is distinct; the second 0 -> 1 is not.
  const std::string error = load_error(two_user_san(
      "social_links 3\n0 1 1.0\n1 0 1.5\n0 1 2.0\n", "attribute_links 0\n"));
  EXPECT_EQ(error, "load_san: social_links 2: duplicate link");
}

TEST(Serialization, SelfLinkNamesTheRecord) {
  const std::string error = load_error(two_user_san(
      "social_links 2\n0 1 1.0\n1 1 2.0\n", "attribute_links 0\n"));
  EXPECT_EQ(error, "load_san: social_links 1: self link");
}

TEST(Serialization, DuplicateAttributeLinkNamesTheRecord) {
  const std::string error = load_error(two_user_san(
      "social_links 0\n", "attribute_links 3\n0 0 1.0\n1 0 1.5\n0 0 2.0\n"));
  EXPECT_EQ(error, "load_san: attribute_links 2: duplicate link");
}

TEST(Serialization, DecreasingJoinTimeNamesTheRecord) {
  const std::string error = load_error(
      "SANv1\nsocial_nodes 3\n1.0\n2.0\n1.5\nattribute_nodes 0\n"
      "social_links 0\nattribute_links 0\n");
  EXPECT_EQ(error.rfind("load_san: social_nodes 2: ", 0), 0u) << error;
}

TEST(Serialization, DecreasingJoinTimeBeatsALaterBadTime) {
  const std::string error = load_error(
      "SANv1\nsocial_nodes 4\n1.0\n2.0\n1.5\nnan\nattribute_nodes 0\n"
      "social_links 0\nattribute_links 0\n");
  EXPECT_EQ(error.rfind("load_san: social_nodes 2: ", 0), 0u) << error;
}

// A duplicate is found only once its section is read, yet the first fault
// in file order still wins: it loses to an earlier record's fault and wins
// over any later one, in its own section or after it.
TEST(Serialization, DuplicateLosesToAnEarlierFault) {
  EXPECT_EQ(load_error(two_user_san("social_links 3\n0 1 1.0\n1 5 1.5\n"
                                    "0 1 2.0\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 1: unknown node id");
  EXPECT_EQ(load_error(two_user_san("social_links 3\n0 1 1.0\n1 1 1.5\n"
                                    "0 1 2.0\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 1: self link");
  // An unknown id is named before a self link, as add_social_link did.
  EXPECT_EQ(load_error(two_user_san("social_links 1\n5 5 1.0\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 0: unknown node id");
  EXPECT_EQ(load_error(two_user_san("social_links 0\n",
                                    "attribute_links 3\n0 0 1.0\n0 4 1.5\n"
                                    "0 0 2.0\n")),
            "load_san: attribute_links 1: unknown attribute id");
}

TEST(Serialization, DuplicateBeatsALaterFault) {
  const std::string dup = "social_links 3\n0 1 1.0\n0 1 1.5\n";
  EXPECT_EQ(load_error(two_user_san(dup + "1 7 2.0\n", "attribute_links 0\n")),
            "load_san: social_links 1: duplicate link");
  EXPECT_EQ(load_error(two_user_san(dup + "1 0 nan\n", "attribute_links 0\n")),
            "load_san: social_links 1: duplicate link");
  EXPECT_EQ(load_error(two_user_san(dup, "")),
            "load_san: social_links 1: duplicate link");
  EXPECT_EQ(load_error(two_user_san(dup + "1 0 2.0\n",
                                    "attribute_links 1\n9 0 1.0\n")),
            "load_san: social_links 1: duplicate link");
  EXPECT_EQ(load_error(two_user_san(dup + "1 0 2.0\n", "attribute_links")),
            "load_san: social_links 1: duplicate link");
  EXPECT_EQ(load_error(two_user_san("social_links 0\n",
                                    "attribute_links 3\n1 0 1.0\n1 0 1.5\n"
                                    "1 x 2.0\n")),
            "load_san: attribute_links 1: duplicate link");
}

// ---- Hostile input: every case is refused with its section and index. --

TEST(Serialization, NonFiniteAndOverflowingTimesNameTheRecord) {
  for (const std::string bad : {"nan", "inf", "-inf", "infinity", "1e400"}) {
    EXPECT_EQ(load_error("SANv1\nsocial_nodes 2\n1.0\n" + bad +
                         "\nattribute_nodes 0\nsocial_links 0\n"
                         "attribute_links 0\n"),
              "load_san: social_nodes 1: bad time")
        << bad;
    EXPECT_EQ(load_error("SANv1\nsocial_nodes 2\n1.0\n2.0\n"
                         "attribute_nodes 2\n0 1.0 Acme\n1 " +
                         bad + " Beta\nsocial_links 0\nattribute_links 0\n"),
              "load_san: attribute_nodes 1: bad time")
        << bad;
    EXPECT_EQ(load_error(two_user_san("social_links 2\n0 1 1.0\n1 0 " + bad +
                                          "\n",
                                      "attribute_links 0\n")),
              "load_san: social_links 1: bad time")
        << bad;
    EXPECT_EQ(load_error(two_user_san("social_links 0\n",
                                      "attribute_links 2\n0 0 1.0\n1 0 " +
                                          bad + "\n")),
              "load_san: attribute_links 1: bad time")
        << bad;
  }
}

TEST(Serialization, NegativeIdsNameTheRecord) {
  EXPECT_EQ(load_error(two_user_san("social_links 2\n0 1 1.0\n-1 0 2.0\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 1: bad id");
  EXPECT_EQ(load_error(two_user_san("social_links 1\n0 -1 1.0\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 0: bad id");
  EXPECT_EQ(load_error(two_user_san("social_links 0\n",
                                    "attribute_links 1\n0 -1 1.0\n")),
            "load_san: attribute_links 0: bad id");
  // Ids past the 32-bit range are refused, not wrapped.
  EXPECT_EQ(load_error(two_user_san("social_links 1\n4294967296 0 1.0\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 0: bad id");
}

TEST(Serialization, NulByteInARecordNamesTheRecord) {
  using namespace std::string_literals;
  EXPECT_EQ(load_error(two_user_san("social_links 2\n0 1 1.0\n1\0 0 2.0\n"s,
                                    "attribute_links 0\n")),
            "load_san: social_links 1: bad id");
  EXPECT_EQ(load_error("SANv1\nsocial_nodes 2\n1.0\n2\0.0\n"s
                       "attribute_nodes 0\nsocial_links 0\n"
                       "attribute_links 0\n"),
            "load_san: social_nodes 1: bad time");
}

TEST(Serialization, MalformedAndTruncatedFieldsNameTheRecord) {
  EXPECT_EQ(load_error("SANv1\nsocial_nodes 3\n1.0\n2.0\n"),
            "load_san: social_nodes 2: truncated");
  EXPECT_EQ(load_error("SANv1\nsocial_nodes 2\n1.0\n+2\n"),
            "load_san: social_nodes 1: bad time");
  EXPECT_EQ(load_error("SANv1\nsocial_nodes 0\nattribute_nodes 2\n"
                       "0 1.0 Acme\n5 1.0 Beta\n"),
            "load_san: attribute_nodes 1: bad attribute type");
  EXPECT_EQ(load_error(two_user_san("social_links 2\n0 1 1.0\n1 0",
                                    "")),
            "load_san: social_links 1: truncated");
  EXPECT_EQ(load_error(two_user_san("social_links 1\n0 1 1.0x\n",
                                    "attribute_links 0\n")),
            "load_san: social_links 0: bad time");
}

TEST(Serialization, HugeHeaderCountFailsAsTruncationWithoutReserving) {
  // A count no file could back must not reach a reserve: the three
  // records are read and the fourth is missing.
  const std::string text =
      "SANv1\nsocial_nodes 4611686018427387904\n1.0\n2.0\n3.0\n";
  std::string error;
  EXPECT_NO_THROW(error = load_error(text));
  EXPECT_EQ(error, "load_san: social_nodes 3: truncated");
  for (const char* section :
       {"attribute_nodes", "social_links", "attribute_links"}) {
    std::string prefix = "SANv1\nsocial_nodes 0\n";
    for (const char* earlier : {"attribute_nodes", "social_links"}) {
      if (std::strcmp(earlier, section) == 0) break;
      prefix += std::string(earlier) + " 0\n";
    }
    EXPECT_NO_THROW(
        error = load_error(prefix + section + " 18446744073709551615\n"));
    EXPECT_EQ(error, "load_san: " + std::string(section) + " 0: truncated");
  }
}

/// Serves a string a few bytes per read and cannot seek, like a pipe.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    if (next_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(7, text_.size() - next_);
    char* data = text_.data() + next_;
    setg(data, data, data + n);
    next_ += n;
    return traits_type::to_int_type(*data);
  }

 private:
  std::string text_;
  std::size_t next_ = 0;
};

/// Every accessor of `a` and `b` agrees, neighbour and member order too.
void expect_same_network(const SocialAttributeNetwork& a,
                         const SocialAttributeNetwork& b) {
  ASSERT_EQ(a.social_node_count(), b.social_node_count());
  ASSERT_EQ(a.attribute_node_count(), b.attribute_node_count());
  ASSERT_EQ(a.social_link_count(), b.social_link_count());
  ASSERT_EQ(a.attribute_link_count(), b.attribute_link_count());
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (NodeId u = 0; u < a.social_node_count(); ++u) {
    ASSERT_TRUE(same(a.social().out_neighbors(u), b.social().out_neighbors(u)))
        << "out_neighbors " << u;
    ASSERT_TRUE(same(a.social().in_neighbors(u), b.social().in_neighbors(u)))
        << "in_neighbors " << u;
    ASSERT_TRUE(same(a.attributes_of(u), b.attributes_of(u)))
        << "attributes_of " << u;
    ASSERT_EQ(a.social_node_time(u), b.social_node_time(u)) << u;
  }
  for (san::AttrId x = 0; x < a.attribute_node_count(); ++x) {
    ASSERT_TRUE(same(a.members_of(x), b.members_of(x))) << "members_of " << x;
    ASSERT_EQ(a.attribute_name(x), b.attribute_name(x)) << x;
    ASSERT_EQ(a.attribute_type(x), b.attribute_type(x)) << x;
    ASSERT_EQ(a.attribute_node_time(x), b.attribute_node_time(x)) << x;
  }
  const auto as = a.social_log(), bs = b.social_log();
  for (std::size_t i = 0; i < as.size(); ++i) {
    ASSERT_EQ(as[i].src, bs[i].src) << i;
    ASSERT_EQ(as[i].dst, bs[i].dst) << i;
    ASSERT_EQ(as[i].time, bs[i].time) << i;
  }
  const auto aa = a.attribute_log(), ba = b.attribute_log();
  for (std::size_t i = 0; i < aa.size(); ++i) {
    ASSERT_EQ(aa[i].user, ba[i].user) << i;
    ASSERT_EQ(aa[i].attr, ba[i].attr) << i;
    ASSERT_EQ(aa[i].time, ba[i].time) << i;
  }
}

std::string saved(const SocialAttributeNetwork& net) {
  std::ostringstream out;
  save_san(net, out);
  return out.str();
}

TEST(Serialization, BulkBuildEqualsIncrementalBuild) {
  // The generators build incrementally (add_social_link and friends);
  // load_san builds in bulk. Both must give the same network, and saving
  // the reloaded one must give the same bytes.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    san::model::GeneratorParams model_params;
    model_params.social_node_count = 1200;
    model_params.seed = seed;
    san::model::ZhelParams zhel_params;
    zhel_params.social_node_count = 1200;
    zhel_params.seed = seed;
    san::crawl::SyntheticGplusParams gplus_params;
    gplus_params.total_social_nodes = 1200;
    gplus_params.seed = seed;
    const std::array<SocialAttributeNetwork, 3> nets = {
        san::model::generate_san(model_params),
        san::model::generate_zhel(zhel_params),
        san::crawl::generate_synthetic_gplus(gplus_params)};
    for (const auto& net : nets) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(net.social_link_count()) + " links");
      const std::string first = saved(net);
      std::istringstream in(first);
      const auto loaded = load_san(in);
      expect_same_network(net, loaded);
      EXPECT_EQ(saved(loaded), first);
      // A stream that cannot seek and splits every token across reads.
      TrickleBuf trickle(first);
      std::istream piped(&trickle);
      expect_same_network(net, load_san(piped));
    }
  }
}

TEST(Serialization, ExtremeFiniteTimesAndLongNamesRoundTrip) {
  SocialAttributeNetwork net;
  const double times[] = {-std::numeric_limits<double>::max(), -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(), 1.0 / 3.0,
                          std::numeric_limits<double>::max()};
  for (const double t : times) net.add_social_node(t);
  // Longer than one read chunk, so the reader's buffer must grow.
  net.add_attribute_node(AttributeType::kOther, std::string(200000, 'n'),
                         std::numeric_limits<double>::denorm_min());
  net.add_attribute_node(AttributeType::kCity, "", -0.0);
  net.add_attribute_node(AttributeType::kSchool, " two  spaces\t", 1e-300);
  net.add_social_link(0, 5, -1e300);
  net.add_attribute_link(5, 2, 4.9406564584124654e-324);
  const std::string first = saved(net);
  std::istringstream in(first);
  const auto loaded = load_san(in);
  expect_same_network(net, loaded);
  EXPECT_TRUE(std::signbit(loaded.social_node_time(1)));
  EXPECT_EQ(saved(loaded), first);
}

/// Median wall time in ns of load_san on each of two SANv1 texts. The
/// files alternate, so host drift lands on both.
std::array<double, 2> median_load_ns(const std::array<std::string, 2>& files,
                                     std::size_t links) {
  constexpr std::size_t kReps = 5;
  std::array<std::vector<double>, 2> ns;
  for (std::size_t k = 0; k < kReps; ++k) {
    for (std::size_t f = 0; f < 2; ++f) {
      std::istringstream in(files[f]);
      const auto t0 = std::chrono::steady_clock::now();
      const auto net = load_san(in);
      ns[f].push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      EXPECT_EQ(net.social_link_count() + net.attribute_link_count(), links);
    }
  }
  std::array<double, 2> median{};
  for (std::size_t f = 0; f < 2; ++f) {
    std::nth_element(ns[f].begin(), ns[f].begin() + kReps / 2, ns[f].end());
    median[f] = ns[f][kReps / 2];
  }
  return median;
}

TEST(Serialization, DenseSocialSectionLoadsInLinearTime) {
  // K(512,512): 262,144 links where each source and each target has 512
  // links, against one random link per source over the same node count.
  // A dedup that scans a neighbour list per insert costs O(degree) per
  // link on the dense file only.
  constexpr NodeId kSide = 512;
  constexpr std::size_t kLinks = std::size_t{kSide} * kSide;
  constexpr std::size_t kNodes = kLinks;
  std::array<std::string, 2> files;
  for (std::size_t f = 0; f < 2; ++f) {
    std::ostringstream out;
    out << "SANv1\nsocial_nodes " << kNodes << '\n';
    for (std::size_t u = 0; u < kNodes; ++u) out << "0\n";
    out << "attribute_nodes 0\nsocial_links " << kLinks << '\n';
    if (f == 0) {
      // Each source once, in a random order, to a random other node: no
      // pair repeats and no link is a self link.
      san::stats::Rng rng(17);
      std::vector<NodeId> sources(kLinks);
      for (std::size_t i = 0; i < kLinks; ++i) {
        sources[i] = static_cast<NodeId>(i);
      }
      for (std::size_t i = kLinks; i > 1; --i) {
        std::swap(sources[i - 1], sources[rng.uniform_index(i)]);
      }
      for (const NodeId u : sources) {
        const std::uint64_t step = 1 + rng.uniform_index(kNodes - 1);
        out << u << ' ' << (u + step) % kNodes << " 1\n";
      }
    } else {
      for (NodeId u = 0; u < kSide; ++u) {
        for (NodeId v = kSide; v < 2 * kSide; ++v) {
          out << u << ' ' << v << " 1\n";
        }
      }
    }
    out << "attribute_links 0\n";
    files[f] = out.str();
  }
  const auto ns = median_load_ns(files, kLinks);
  EXPECT_LT(ns[1], 2.0 * ns[0])
      << "random: " << ns[0] << " ns, K(512,512): " << ns[1] << " ns";
}

TEST(Serialization, LongAttributeRunLoadsInLinearTime) {
  // One user declaring 2^17 attributes in descending id order, against
  // the same links spread one per user. An insert into a sorted run moves
  // the whole run: O(run length) per link on the long run only.
  constexpr std::size_t kLinks = std::size_t{1} << 17;
  std::array<std::string, 2> files;
  for (std::size_t f = 0; f < 2; ++f) {
    std::ostringstream out;
    out << "SANv1\nsocial_nodes " << kLinks << '\n';
    for (std::size_t u = 0; u < kLinks; ++u) out << "0\n";
    out << "attribute_nodes " << kLinks << '\n';
    for (std::size_t a = 0; a < kLinks; ++a) out << "4 0 a\n";
    out << "social_links 0\nattribute_links " << kLinks << '\n';
    for (std::size_t i = 0; i < kLinks; ++i) {
      out << (f == 0 ? i : 0) << ' ' << kLinks - 1 - i << " 1\n";
    }
    files[f] = out.str();
  }
  const auto ns = median_load_ns(files, kLinks);
  EXPECT_LT(ns[1], 2.0 * ns[0])
      << "spread: " << ns[0] << " ns, one run: " << ns[1] << " ns";
}

TEST(Serialization, FileRoundTrip) {
  const auto net = small_san();
  const std::string path = ::testing::TempDir() + "/san_roundtrip.txt";
  save_san(net, path);
  const auto loaded = load_san(path);
  EXPECT_EQ(loaded.social_link_count(), net.social_link_count());
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(load_san(std::string("/nonexistent/definitely/missing.san")),
               std::runtime_error);
}

}  // namespace
