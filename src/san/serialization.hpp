// Plain-text serialization of a SAN (nodes, links, timestamps, attribute
// metadata). The format is line-oriented and versioned so datasets generated
// by the crawler or the models can be stored and reloaded.
#pragma once

#include <iosfwd>
#include <string>

#include "san/san.hpp"

namespace san {

/// Write `network` to `out` in the "SANv1" text format.
void save_san(const SocialAttributeNetwork& network, std::ostream& out);
void save_san(const SocialAttributeNetwork& network, const std::string& path);

/// Parse a "SANv1" stream. Throws std::runtime_error on malformed input,
/// naming the section and record index of a bad record (an unknown id, a
/// decreasing join time, a duplicate or self link).
SocialAttributeNetwork load_san(std::istream& in);
SocialAttributeNetwork load_san(const std::string& path);

}  // namespace san
