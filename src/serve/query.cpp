#include "serve/query.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/parse.hpp"

namespace san::serve {
namespace {

using core::append_double;
using core::append_u64;

[[noreturn]] void bad_line(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("workload line " + std::to_string(line_no) +
                              ": " + what);
}

/// Parses a snapshot time; where a query time is expected (`now` non-null)
/// the token `now` is accepted and maps to +infinity with *now set.
double parse_time(const std::string& token, std::size_t line_no,
                  bool* now = nullptr) {
  if (now != nullptr && token == "now") {
    *now = true;
    return std::numeric_limits<double>::infinity();
  }
  double value = 0.0;
  if (!core::parse_double_strict(token.c_str(), value)) {
    bad_line(line_no, "malformed time '" + token + "'");
  }
  return value;
}

std::uint64_t parse_u64(const std::string& token, std::size_t line_no,
                        const char* what) {
  std::uint64_t value = 0;
  if (!core::parse_u64_strict(token.c_str(), value)) {
    bad_line(line_no, std::string("malformed ") + what + " '" + token + "'");
  }
  return value;
}

NodeId parse_node(const std::string& token, std::size_t line_no,
                  const char* what) {
  const std::uint64_t value = parse_u64(token, line_no, what);
  if (value > 0xffffffffULL) {
    bad_line(line_no, std::string(what) + " '" + token + "' too big");
  }
  return static_cast<NodeId>(value);
}

std::uint32_t parse_k(const std::string& token, std::size_t line_no,
                      std::uint32_t max_k) {
  const std::uint64_t k = parse_u64(token, line_no, "k");
  if (k == 0 || k > max_k) {
    bad_line(line_no, "k '" + token + "' out of range (1.." +
                          std::to_string(max_k) + ")");
  }
  return static_cast<std::uint32_t>(k);
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kLinkRec:
      return "linkrec";
    case QueryKind::kAttrInfer:
      return "attrs";
    case QueryKind::kEgoMetrics:
      return "ego";
    case QueryKind::kReciprocity:
      return "recip";
    case QueryKind::kSybil:
      return "sybil";
    case QueryKind::kCommunity:
      return "community";
    case QueryKind::kInfluence:
      return "influence";
  }
  return "?";
}

std::string QueryResult::to_line(const Query& query) const {
  std::string line = to_string(kind);
  line += " t=";
  if (query.now) {
    line += "now";
  } else {
    append_double(line, query.time);
  }
  if (kind == QueryKind::kInfluence) {
    // No subject user: the query is identified by its pick budget and
    // given seed set.
    line += " k=";
    append_u64(line, query.k);
    line += " s=";
    if (query.seeds.empty()) {
      line += '-';
    } else {
      for (std::size_t i = 0; i < query.seeds.size(); ++i) {
        if (i > 0) line += ',';
        append_u64(line, query.seeds[i]);
      }
    }
  } else {
    line += " u=";
    append_u64(line, query.user);
  }
  if (kind == QueryKind::kReciprocity) {
    line += " v=";
    append_u64(line, query.other);
  }
  if (!ok) {
    line += " ERR unknown-node";
    return line;
  }
  switch (kind) {
    case QueryKind::kLinkRec:
      for (const auto& rec : recommendations) {
        line += ' ';
        append_u64(line, rec.candidate);
        line += ':';
        append_double(line, rec.score);
      }
      break;
    case QueryKind::kAttrInfer:
      for (const auto& pred : predictions) {
        line += ' ';
        append_u64(line, pred.attribute);
        line += ':';
        append_double(line, pred.score);
      }
      break;
    case QueryKind::kEgoMetrics:
      line += " out=";
      append_u64(line, ego.out_degree);
      line += " in=";
      append_u64(line, ego.in_degree);
      line += " deg=";
      append_u64(line, ego.degree);
      line += " mutual=";
      append_u64(line, ego.mutual_degree);
      line += " attrs=";
      append_u64(line, ego.attribute_count);
      line += " twohop=";
      append_u64(line, ego.two_hop_count);
      break;
    case QueryKind::kReciprocity:
      line += link_present ? (already_mutual ? " mutual" : " oneway")
                           : " nolink";
      line += " structural=";
      append_double(line, reciprocity.structural);
      line += " san=";
      append_double(line, reciprocity.san);
      break;
    case QueryKind::kSybil:
      line += " region=";
      append_u64(line, sybil.compromised);
      line += " attack=";
      append_u64(line, sybil.attack_edges);
      line += " sybils=";
      append_double(line, sybil.sybil_identities);
      break;
    case QueryKind::kCommunity:
      line += " label=";
      append_u64(line, community.label);
      line += " size=";
      append_u64(line, community.size);
      line += " of=";
      append_u64(line, community.communities);
      break;
    case QueryKind::kInfluence:
      for (const auto& pick : influence.picks) {
        line += ' ';
        append_u64(line, pick.node);
        line += ':';
        append_u64(line, pick.gain);
      }
      line += " covered=";
      append_u64(line, influence.covered);
      break;
  }
  return line;
}

namespace {

/// Parses one line into `step`; returns false for blanks and comments.
/// `allow_ingest` gates the live-only `ingest` directive.
bool parse_step(const std::string& line, std::size_t line_no,
                bool allow_ingest, WorkloadStep& step) {
  std::istringstream fields(line);
  std::string op;
  if (!(fields >> op) || op[0] == '#') return false;

  step = WorkloadStep{};
  Query& q = step.query;
  std::string a, b, c, extra;
  if (op == "ingest") {
    if (!allow_ingest) {
      bad_line(line_no, "ingest lines need live replay (san_tool live)");
    }
    step.ingest = true;
    if (!(fields >> a)) bad_line(line_no, "'" + op + "' expects TIP");
    step.tip = parse_time(a, line_no);
    if (!std::isfinite(step.tip)) {
      bad_line(line_no, "ingest TIP must be finite");
    }
  } else if (op == "linkrec" || op == "attrs") {
    q.kind = op == "linkrec" ? QueryKind::kLinkRec : QueryKind::kAttrInfer;
    if (!(fields >> a >> b >> c)) {
      bad_line(line_no, "'" + op + "' expects TIME USER K");
    }
    q.time = parse_time(a, line_no, &q.now);
    q.user = parse_node(b, line_no, "user");
    q.k = parse_k(c, line_no, std::numeric_limits<std::uint32_t>::max());
  } else if (op == "ego" || op == "sybil" || op == "community") {
    q.kind = op == "ego"     ? QueryKind::kEgoMetrics
             : op == "sybil" ? QueryKind::kSybil
                             : QueryKind::kCommunity;
    if (!(fields >> a >> b)) {
      bad_line(line_no, "'" + op + "' expects TIME USER");
    }
    q.time = parse_time(a, line_no, &q.now);
    q.user = parse_node(b, line_no, "user");
  } else if (op == "recip") {
    q.kind = QueryKind::kReciprocity;
    if (!(fields >> a >> b >> c)) {
      bad_line(line_no, "'" + op + "' expects TIME SRC DST");
    }
    q.time = parse_time(a, line_no, &q.now);
    q.user = parse_node(b, line_no, "src");
    q.other = parse_node(c, line_no, "dst");
  } else if (op == "influence") {
    q.kind = QueryKind::kInfluence;
    if (!(fields >> a >> b)) {
      bad_line(line_no, "'" + op + "' expects TIME K [SEED...]");
    }
    q.time = parse_time(a, line_no, &q.now);
    q.k = parse_k(b, line_no, kMaxInfluenceK);
    while (fields >> c) q.seeds.push_back(parse_node(c, line_no, "seed"));
    return true;  // variable arity: every remaining token was consumed
  } else {
    bad_line(line_no, "unknown query kind '" + op + "'");
  }
  if (fields >> extra) bad_line(line_no, "trailing token '" + extra + "'");
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read workload file " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

std::vector<Query> parse_workload(const std::string& text) {
  std::vector<Query> queries;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  WorkloadStep step;
  while (std::getline(stream, line)) {
    ++line_no;
    if (parse_step(line, line_no, /*allow_ingest=*/false, step)) {
      queries.push_back(step.query);
    }
  }
  return queries;
}

std::vector<WorkloadStep> parse_live_workload(const std::string& text) {
  std::vector<WorkloadStep> steps;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  WorkloadStep step;
  while (std::getline(stream, line)) {
    ++line_no;
    if (parse_step(line, line_no, /*allow_ingest=*/true, step)) {
      steps.push_back(step);
    }
  }
  return steps;
}

bool parse_workload_line(const std::string& line, std::size_t line_no,
                         WorkloadStep& step) {
  return parse_step(line, line_no, /*allow_ingest=*/true, step);
}

std::vector<Query> load_workload(const std::string& path) {
  return parse_workload(read_file(path));
}

std::vector<WorkloadStep> load_live_workload(const std::string& path) {
  return parse_live_workload(read_file(path));
}

}  // namespace san::serve
