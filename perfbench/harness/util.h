// Small self-contained helpers for the benchmark harness: clocks, a seeded
// RNG, order statistics, and a JSON response scanner. None of this touches the
// library under test, so a change to the library cannot change how inputs are
// generated or how answers are read.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// splitmix64: the inputs depend only on the seed and this generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }

 private:
  std::uint64_t state_;
};

// Derives an independent stream seed from (seed, label).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label) {
  Rng r(seed * 0x100000001B3ull + label);
  r.next();
  return r.next();
}

// Percentile by linear interpolation between closest ranks (the same rule as
// numpy's default and Python's statistics.quantiles(method="inclusive")).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// The highest of the standard tail percentiles (99.9, 99, 95, 90, 50) that
// has at least ten samples beyond it; 100 (the maximum) when even the median
// does not.
inline double supported_tail_percentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-6) return p;
  }
  return 100.0;
}

// --- JSON response scanning -------------------------------------------------
// Reads exactly the response fields the checks need from one JSONL response
// line, skipping every other field whatever its type. Tolerates any
// whitespace and field order.
struct Answer {
  std::int64_t id = -1;
  std::string status;
  bool has_distances = false, has_reachable = false, has_paths = false;
  std::vector<std::int64_t> distances;
  std::vector<std::uint8_t> reachable;
  std::vector<std::vector<std::int64_t>> paths;
  void clear() {
    id = -1;
    status.clear();
    has_distances = has_reachable = has_paths = false;
    distances.clear();
    reachable.clear();
    paths.clear();
  }
};

class JsonScanner {
 public:
  explicit JsonScanner(std::string_view s) : s_(s) {}

  bool parse_answer(Answer& out) {
    out.clear();
    ws();
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    for (;;) {
      std::string key;
      if (!string(key)) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      bool ok = true;
      if (key == "id") {
        ok = integer(out.id);
      } else if (key == "status") {
        ok = string(out.status);
      } else if (key == "distances") {
        out.has_distances = true;
        ok = int_array(out.distances);
      } else if (key == "reachable") {
        out.has_reachable = true;
        ok = bool_array(out.reachable);
      } else if (key == "paths") {
        out.has_paths = true;
        ok = path_array(out.paths);
      } else {
        ok = skip_value();
      }
      if (!ok) return false;
      ws();
      if (eat('}')) break;
      if (!eat(',')) return false;
      ws();
    }
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\r' || s_[i_] == '\n')) {
      ++i_;
    }
  }
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          if (i_ + 4 > s_.size()) return false;
          i_ += 4;
          out.push_back('?');
        } else {
          out.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
        }
      } else {
        out.push_back(c);
      }
    }
    return false;
  }
  bool integer(std::int64_t& out) {
    bool neg = eat('-');
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') return false;
    std::int64_t v = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      v = v * 10 + (s_[i_++] - '0');
    }
    out = neg ? -v : v;
    return true;
  }
  bool int_array(std::vector<std::int64_t>& out) {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      std::int64_t v = 0;
      if (!integer(v)) return false;
      out.push_back(v);
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
      ws();
    }
  }
  bool bool_array(std::vector<std::uint8_t>& out) {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      if (s_.substr(i_, 4) == "true") {
        out.push_back(1);
        i_ += 4;
      } else if (s_.substr(i_, 5) == "false") {
        out.push_back(0);
        i_ += 5;
      } else {
        return false;
      }
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
      ws();
    }
  }
  bool path_array(std::vector<std::vector<std::int64_t>>& out) {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      out.emplace_back();
      if (!int_array(out.back())) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
      ws();
    }
  }
  bool skip_value() {
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '"') {
      std::string ignored;
      return string(ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      ws();
      if (eat(close)) return true;
      for (;;) {
        if (c == '{') {
          std::string ignored;
          if (!string(ignored)) return false;
          ws();
          if (!eat(':')) return false;
        }
        if (!skip_value()) return false;
        ws();
        if (eat(close)) return true;
        if (!eat(',')) return false;
        ws();
      }
    }
    // number, true, false, null
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' && s_[i_] != ']' &&
           s_[i_] != ' ') {
      ++i_;
    }
    return i_ > start;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace perfbench
