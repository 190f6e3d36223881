// crash_log.hpp — flit_crashtest's ack stream, and the LinCheck history
// it becomes.
//
// The workload child reports every mutation it issues, and how far each
// thread has got, as one line per pipe write (each under PIPE_BUF, so
// worker threads interleave whole lines):
//
//   I <tid> <seq> P <key> <vseq>   op issued: put of make_value(key, vseq)
//   I <tid> <seq> R <key>          op issued: remove
//   D <tid> <seq>                  ops <= seq applied
//   A <tid> <seq>                  ops <= seq durable (the ack)
//   F <tid> <lo> <hi>              ops lo..hi refused by a full pool
//   E <message>                    the child failed before the kill
//
// Net mode records the same AckLog from its client connections, one
// floor step per reply. build_history() turns a log into the input of
// check::check_durable, which judges the reopened image. The encoding:
//
//   * Ticks follow each thread's program order, not pipe arrival order:
//     op `seq` gets inv = 2*seq - 1, a completed op gets resp = 2*seq,
//     an in-flight op gets a resp past the cut, and the cut is
//     2*(longest thread log) + 1. This is sound because keys are striped
//     (thread t owns the keys k with k mod threads == t) and
//     check_durable only compares ops on one key; an op off its stripe
//     makes the builder report an error.
//   * An op is completed when seq <= max(last D, last A) and it was not
//     refused: SIGKILL keeps the page cache, so applied ops must survive
//     just like acked ones. The ack alone is not the response: same-key
//     ops sharing one ack (a multi_put, a net pipeline) would then
//     overlap, and an image rolled back to the older one would pass.
//   * A refused op is in flight, unless a later completed op of its
//     thread writes the same key: that op supersedes it either way, so
//     the refused op is left out.
//   * A remove is Op::kRemove with flag = true. Its result is never
//     seen, and removing an absent key changes nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "check/history.hpp"

namespace flit::crashtest {

using Key = std::int64_t;

/// Deterministic, variable-length payload for (key, vseq). The header
/// names both coordinates and the filler depends on both, so a torn mix
/// of two versions of one key matches neither version's value id.
inline std::string make_value(Key key, std::uint64_t vseq) {
  std::string v = "k" + std::to_string(key) + ".v" + std::to_string(vseq) +
                  ".";
  const std::size_t len =
      1 + static_cast<std::size_t>(
              (static_cast<std::uint64_t>(key) * 131 + vseq * 257) % 1200);
  const char fill = static_cast<char>(
      'a' + (static_cast<std::uint64_t>(key) + vseq * 31) % 26);
  if (v.size() < len) v.append(len - v.size(), fill);
  return v;
}

/// One issued mutation: a put of make_value(key, vseq), or a remove.
struct IssuedOp {
  bool is_put = false;
  Key key = 0;
  std::uint64_t vseq = 0;
};

/// Write the I-line of op `seq` of thread `t` into buf; returns the
/// snprintf length.
inline int issue_line(char* buf, std::size_t cap, int t, std::uint64_t seq,
                      const IssuedOp& op) {
  const auto s = static_cast<unsigned long long>(seq);
  const auto k = static_cast<long long>(op.key);
  return op.is_put ? std::snprintf(buf, cap, "I %d %llu P %lld %llu\n", t, s,
                                   k,
                                   static_cast<unsigned long long>(op.vseq))
                   : std::snprintf(buf, cap, "I %d %llu R %lld\n", t, s, k);
}

/// One iteration's ack stream, per thread (net mode: per connection).
struct AckLog {
  std::vector<std::vector<IssuedOp>> ops;  ///< seq = index + 1
  std::vector<std::uint64_t> floor;        ///< max(last D, last A)
  std::vector<std::set<std::uint64_t>> refused;
  std::size_t refusals = 0;  ///< F-lines seen
  std::string child_error;

  explicit AckLog(int threads)
      : ops(threads), floor(threads, 0), refused(threads) {}

  void parse_line(const char* line) {
    int t = -1;
    unsigned long long seq = 0, hi = 0, vseq = 0;
    long long key = 0;
    char kind = 0;
    const int n = static_cast<int>(ops.size());
    switch (line[0]) {
      case 'I':
        if (std::sscanf(line, "I %d %llu %c %lld %llu", &t, &seq, &kind, &key,
                        &vseq) >= 4 &&
            t >= 0 && t < n) {
          // Seqs are dense per thread, and one thread's lines arrive in
          // the order it wrote them.
          ops[t].push_back({kind == 'P', static_cast<Key>(key), vseq});
        }
        break;
      case 'D':
      case 'A':
        if (std::sscanf(line + 1, " %d %llu", &t, &seq) == 2 && t >= 0 &&
            t < n) {
          floor[t] = std::max<std::uint64_t>(floor[t], seq);
        }
        break;
      case 'F':
        if (std::sscanf(line, "F %d %llu %llu", &t, &seq, &hi) == 3 &&
            t >= 0 && t < n && seq >= 1 && seq <= hi && hi - seq < 64) {
          for (; seq <= hi; ++seq) refused[t].insert(seq);
          ++refusals;
        }
        break;
      case 'E':
        child_error = line + 2;
        break;
    }
  }
};

/// check_durable's inputs for one iteration.
struct CrashHistory {
  check::History history;
  std::uint64_t cut = 0;
  std::size_t completed = 0;  ///< ops the image must keep
  std::string error;          ///< non-empty: an op arrived off its stripe
};

inline CrashHistory build_history(const AckLog& log) {
  CrashHistory out;
  const std::size_t threads = log.ops.size();
  std::size_t longest = 0;
  for (const auto& ops : log.ops) longest = std::max(longest, ops.size());
  out.cut = 2 * longest + 1;
  for (std::size_t t = 0; t < threads; ++t) {
    std::set<Key> done_later;  // keys a later completed op writes
    for (std::size_t i = log.ops[t].size(); i-- > 0;) {
      const IssuedOp& op = log.ops[t][i];
      if (op.key < 0 || static_cast<std::size_t>(op.key) % threads != t) {
        out.error = "thread " + std::to_string(t) + " issued key " +
                    std::to_string(op.key) + " off its stripe";
        return out;
      }
      const std::uint64_t seq = i + 1;
      const bool refused = log.refused[t].count(seq) != 0;
      if (refused && done_later.count(op.key) != 0) continue;
      const bool done = seq <= log.floor[t] && !refused;
      if (done) {
        done_later.insert(op.key);
        ++out.completed;
      }
      out.history.events.push_back(
          {2 * seq - 1, done ? 2 * seq : out.cut + 1, op.key,
           op.is_put ? check::value_id(make_value(op.key, op.vseq)) : 0,
           op.is_put ? check::Op::kPut : check::Op::kRemove, !op.is_put});
    }
  }
  return out;
}

}  // namespace flit::crashtest
