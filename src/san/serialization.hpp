// Plain-text serialization of a SAN (nodes, links, timestamps, attribute
// metadata). The format is line-oriented and versioned so datasets generated
// by the crawler or the models can be stored and reloaded.
//
// load_san reads in O(bytes + nodes + links): the stream in fixed-size
// chunks (never the whole file), every number with std::from_chars straight
// into the network's columns, then one bulk build
// (SocialAttributeNetwork::from_logs) that finds duplicate links with a
// stamp array instead of a per-link neighbour scan. docs/ARCHITECTURE.md
// ("Loading SANv1") has the cost model and the diagnostic rules.
#pragma once

#include <iosfwd>
#include <string>

#include "san/san.hpp"

namespace san {

/// Write `network` to `out` in the "SANv1" text format.
void save_san(const SocialAttributeNetwork& network, std::ostream& out);
void save_san(const SocialAttributeNetwork& network, const std::string& path);

/// Parse a "SANv1" stream. Throws std::runtime_error
/// "load_san: <section> <index>: <reason>" for the first bad record in
/// file order: a truncated or malformed field, a non-finite time, an
/// attribute type out of range, an unknown id, a decreasing join time, or
/// a duplicate or self link. A bad magic or section header is named
/// without an index. Every file save_san writes loads to an identical
/// network.
SocialAttributeNetwork load_san(std::istream& in);
SocialAttributeNetwork load_san(const std::string& path);

}  // namespace san
