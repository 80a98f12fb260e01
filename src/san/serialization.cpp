#include "san/serialization.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace san {
namespace {

constexpr const char* kMagic = "SANv1";

void expect(bool condition, const char* message) {
  if (!condition) throw std::runtime_error(std::string("load_san: ") + message);
}

/// Insert one record, rethrowing the network's own rejection (an unknown
/// id, a decreasing join time, or a link the insert refused) as a load_san
/// error that names the section and the record's index within it.
template <typename Insert>
void insert_record(const char* section, std::uint64_t index, Insert&& insert) {
  try {
    insert();
  } catch (const std::logic_error& e) {
    throw std::runtime_error(std::string("load_san: ") + section + ' ' +
                             std::to_string(index) + ": " + e.what());
  }
}

}  // namespace

void save_san(const SocialAttributeNetwork& network, std::ostream& out) {
  // Timestamps must survive a save/load round trip exactly: SanTimeline
  // snapshots binary-search them, so a 6-digit default would shift snapshot
  // boundaries for fractional times.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kMagic << '\n';
  out << "social_nodes " << network.social_node_count() << '\n';
  for (std::size_t u = 0; u < network.social_node_count(); ++u) {
    out << network.social_node_time(static_cast<NodeId>(u)) << '\n';
  }
  out << "attribute_nodes " << network.attribute_node_count() << '\n';
  for (std::size_t a = 0; a < network.attribute_node_count(); ++a) {
    const auto id = static_cast<AttrId>(a);
    // Name goes last because it may contain spaces (never newlines).
    out << static_cast<int>(network.attribute_type(id)) << ' '
        << network.attribute_node_time(id) << ' ' << network.attribute_name(id)
        << '\n';
  }
  out << "social_links " << network.social_log().size() << '\n';
  for (const auto& e : network.social_log()) {
    out << e.src << ' ' << e.dst << ' ' << e.time << '\n';
  }
  out << "attribute_links " << network.attribute_log().size() << '\n';
  for (const auto& link : network.attribute_log()) {
    out << link.user << ' ' << link.attr << ' ' << link.time << '\n';
  }
}

void save_san(const SocialAttributeNetwork& network, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_san: cannot open " + path);
  save_san(network, out);
  // Opening writable says nothing about the writes themselves: surface a
  // full disk as a failure instead of leaving a truncated SANv1 file.
  out.flush();
  if (!out) throw std::runtime_error("save_san: short write to " + path);
}

SocialAttributeNetwork load_san(std::istream& in) {
  std::string token;
  expect(static_cast<bool>(in >> token) && token == kMagic, "bad magic");

  SocialAttributeNetwork network;
  std::size_t n_social = 0;
  expect(static_cast<bool>(in >> token >> n_social) && token == "social_nodes",
         "expected social_nodes");
  for (std::size_t u = 0; u < n_social; ++u) {
    double time = 0.0;
    expect(static_cast<bool>(in >> time), "truncated social node times");
    insert_record("social_nodes", u, [&] { network.add_social_node(time); });
  }

  std::size_t n_attr = 0;
  expect(static_cast<bool>(in >> token >> n_attr) && token == "attribute_nodes",
         "expected attribute_nodes");
  for (std::size_t a = 0; a < n_attr; ++a) {
    int type = 0;
    double time = 0.0;
    expect(static_cast<bool>(in >> type >> time), "truncated attribute node");
    expect(type >= 0 && type < kAttributeTypeCount, "bad attribute type");
    std::string name;
    std::getline(in, name);
    if (!name.empty() && name.front() == ' ') name.erase(0, 1);
    network.add_attribute_node(static_cast<AttributeType>(type), name, time);
  }

  std::uint64_t n_links = 0;
  expect(static_cast<bool>(in >> token >> n_links) && token == "social_links",
         "expected social_links");
  for (std::uint64_t i = 0; i < n_links; ++i) {
    NodeId u = 0, v = 0;
    double time = 0.0;
    expect(static_cast<bool>(in >> u >> v >> time), "truncated social link");
    insert_record("social_links", i, [&] {
      // A dropped record would leave the header count wrong: reject it.
      if (!network.add_social_link(u, v, time)) {
        throw std::invalid_argument(u == v ? "self link" : "duplicate link");
      }
    });
  }

  expect(static_cast<bool>(in >> token >> n_links) &&
             token == "attribute_links",
         "expected attribute_links");
  for (std::uint64_t i = 0; i < n_links; ++i) {
    NodeId u = 0;
    AttrId a = 0;
    double time = 0.0;
    expect(static_cast<bool>(in >> u >> a >> time), "truncated attribute link");
    insert_record("attribute_links", i, [&] {
      if (!network.add_attribute_link(u, a, time)) {
        throw std::invalid_argument("duplicate link");
      }
    });
  }
  return network;
}

SocialAttributeNetwork load_san(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_san: cannot open " + path);
  return load_san(in);
}

}  // namespace san
