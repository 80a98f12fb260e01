#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "san/san.hpp"
#include "san/serialization.hpp"
#include "san/snapshot.hpp"
#include "san/subsample.hpp"

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
