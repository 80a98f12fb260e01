#include "san/serialization.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace san {
namespace {

constexpr const char* kMagic = "SANv1";

/// The C locale's isspace set: the token separators SANv1 files have
/// always been read with, so no file changes how it splits.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The whitespace-separated tokens of a stream, read in fixed-size chunks:
/// the buffer holds one chunk and grows only for a token or attribute name
/// longer than that, never to the whole file.
class TokenReader {
 public:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;

  explicit TokenReader(std::istream& in) : in_(in), buf_(kChunk) {
    // A seekable stream tells how many bytes are left, so header counts
    // can be clamped to what the rest of the input could hold.
    const std::streampos here = in.tellg();
    if (here == std::streampos(-1)) return;
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.clear();
    in.seekg(here);
    if (end != std::streampos(-1) && end >= here) {
      size_ = static_cast<std::uint64_t>(end - here);
    }
  }

  /// The next token, or an empty view at the end of the input. The view
  /// stays valid until the next call.
  std::string_view token() {
    if (!skip_space()) return {};
    std::size_t len = 0;
    for (;;) {
      std::size_t i = pos_ + len;
      while (i < end_ && !is_space(buf_[i])) ++i;
      len = i - pos_;
      if (i < end_ || !refill()) break;
    }
    const std::string_view token(buf_.data() + pos_, len);
    pos_ += len;
    return token;
  }

  /// Move to the next token; false at the end of the input.
  bool skip_space() {
    for (;;) {
      while (pos_ < end_ && is_space(buf_[pos_])) ++pos_;
      if (pos_ < end_) return true;
      if (!refill()) return false;
    }
  }

  /// Parse the token at the read position (after skip_space) as a whole
  /// number of type T with std::from_chars, straight from the buffer: no
  /// sign on an unsigned T and never a '+'. False if the token is not one.
  template <typename T>
  bool number(T& value) {
    for (;;) {
      const char* begin = buf_.data() + pos_;
      const char* end = buf_.data() + end_;
      const auto [ptr, ec] = std::from_chars(begin, end, value);
      const bool whole = ptr == end ? done_ : is_space(*ptr);
      if (ec == std::errc() && whole) {
        pos_ = static_cast<std::size_t>(ptr - buf_.data());
        return true;
      }
      // A token that runs to the end of the buffer may go on past it:
      // parse it again with more bytes, or once the input is known to end.
      if (done_ || std::find_if(begin, end, is_space) != end) return false;
      refill();
    }
  }

  /// The rest of the current line without its newline, which is consumed.
  std::string_view rest_of_line() {
    std::size_t len = 0;
    for (;;) {
      const void* newline =
          std::memchr(buf_.data() + pos_ + len, '\n', end_ - pos_ - len);
      if (newline != nullptr) {
        len = static_cast<const char*>(newline) - (buf_.data() + pos_);
        const std::string_view line(buf_.data() + pos_, len);
        pos_ += len + 1;
        return line;
      }
      len = end_ - pos_;
      if (!refill()) break;
    }
    const std::string_view line(buf_.data() + pos_, len);
    pos_ += len;
    return line;
  }

  /// `count` clamped to how many records of `tokens` tokens each the
  /// unread input could hold (a token and its separator take at least two
  /// bytes), so a header count reserves no memory the file cannot back.
  std::uint64_t backed(std::uint64_t count, std::uint64_t tokens) const {
    const std::uint64_t used = read_ - (end_ - pos_);
    // A stream that grew since it was sized backs nothing more.
    const std::uint64_t left =
        !size_ ? std::uint64_t{kChunk} : *size_ > used ? *size_ - used : 0;
    return std::min(count, (left + 1) / (2 * tokens));
  }

 private:
  /// Move the unread bytes to the front and append the next chunk; false
  /// when the input has no more bytes.
  bool refill() {
    if (done_) return false;
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    in_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    read_ += got;
    done_ = !in_;
    return got > 0;
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0, end_ = 0;  // unread bytes are buf_[pos_, end_)
  std::uint64_t read_ = 0;         // bytes taken from the stream so far
  std::optional<std::uint64_t> size_;  // bytes the stream held at start
  bool done_ = false;
};

/// Build the network, rethrowing its refusal of a record as a load_san
/// error that names the section and the record's index within it.
SocialAttributeNetwork build(SanColumns& columns) {
  try {
    return SocialAttributeNetwork::from_logs(std::move(columns));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_san: ") + e.what());
  }
}

/// One pass over a SANv1 stream into the network's columns. Syntax faults
/// (a missing header, a truncated or malformed field) are found as the
/// records are read; the faults the network's own checks find (an unknown
/// id, a decreasing join time, a self or duplicate link) are found by
/// from_logs. fail() first builds the records read so far, so whichever
/// fault comes first in the file is the one reported.
struct Parser {
  explicit Parser(std::istream& in) : reader(in) {}

  [[noreturn]] void fail(const std::string& reason) {
    build(columns);
    throw std::runtime_error("load_san: " + reason);
  }
  [[noreturn]] void fail_record(const char* reason) {
    fail(std::string(section) + ' ' + std::to_string(index) + ": " + reason);
  }

  std::uint64_t header(const char* name) {
    std::uint64_t count = 0;
    if (reader.token() != name || !reader.skip_space() ||
        !reader.number(count)) {
      fail(std::string("expected ") + name);
    }
    section = name;
    return count;
  }
  /// The next field of the current record, parsed as a T; fails the
  /// record as truncated at the end of the input, else as `bad`.
  template <typename T>
  T field(const char* bad) {
    T value{};
    if (!reader.skip_space()) fail_record("truncated");
    if (!reader.number(value)) fail_record(bad);
    return value;
  }
  std::uint32_t id() { return field<std::uint32_t>("bad id"); }
  /// from_chars reads nan, inf and (as out of range) overflow; the
  /// istream loader refused all three, and so does this one.
  double time() {
    const double value = field<double>("bad time");
    if (!std::isfinite(value)) fail_record("bad time");
    return value;
  }

  TokenReader reader;
  SanColumns columns;
  const char* section = "";
  std::uint64_t index = 0;
};

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
  Parser p(in);
  auto& c = p.columns;
  if (p.reader.token() != kMagic) p.fail("bad magic");

  const std::uint64_t n_social = p.header("social_nodes");
  c.social_times.reserve(p.reader.backed(n_social, 1));
  for (p.index = 0; p.index < n_social; ++p.index) {
    c.social_times.push_back(p.time());
  }

  const std::uint64_t n_attr = p.header("attribute_nodes");
  const std::uint64_t attr_backed = p.reader.backed(n_attr, 2);
  c.attribute_types.reserve(attr_backed);
  c.attribute_names.reserve(attr_backed);
  c.attribute_times.reserve(attr_backed);
  for (p.index = 0; p.index < n_attr; ++p.index) {
    const int type = p.field<int>("bad attribute type");
    if (type < 0 || type >= kAttributeTypeCount) {
      p.fail_record("bad attribute type");
    }
    const double time = p.time();
    // The name is the rest of the line, after one separating space.
    std::string_view name = p.reader.rest_of_line();
    if (!name.empty() && name.front() == ' ') name.remove_prefix(1);
    c.attribute_types.push_back(static_cast<AttributeType>(type));
    c.attribute_times.push_back(time);
    c.attribute_names.emplace_back(name);
  }

  const std::uint64_t n_social_links = p.header("social_links");
  c.social_log.reserve(p.reader.backed(n_social_links, 3));
  for (p.index = 0; p.index < n_social_links; ++p.index) {
    const NodeId u = p.id();
    const NodeId v = p.id();
    c.social_log.push_back({u, v, p.time()});
  }

  const std::uint64_t n_attr_links = p.header("attribute_links");
  c.attribute_log.reserve(p.reader.backed(n_attr_links, 3));
  for (p.index = 0; p.index < n_attr_links; ++p.index) {
    const NodeId u = p.id();
    const AttrId a = p.id();
    c.attribute_log.push_back({u, a, p.time()});
  }
  return build(c);
}

SocialAttributeNetwork load_san(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_san: cannot open " + path);
  return load_san(in);
}

}  // namespace san
