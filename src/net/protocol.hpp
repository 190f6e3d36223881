// protocol.hpp — the flit-server wire protocol: a RESP-like text protocol
// with incremental (torn-read-safe) parsers for both directions.
//
// Requests arrive in one of two framings:
//
//   * RESP arrays (binary-safe, what flit_loadgen and the client helper
//     emit):   *<n>\r\n  then n bulk strings  $<len>\r\n<len bytes>\r\n
//   * inline commands (telnet-friendly): space-separated tokens on one
//     line, terminated by \n (an optional preceding \r is stripped).
//     Values with spaces or CRLF need the array framing.
//
// Replies are RESP: simple strings (+OK), errors (-ERR ...), integers
// (:n), bulk strings ($len ... or $-1 for null), and arrays (*n followed
// by n replies).
//
// Both parsers are *incremental*: bytes are fed as they arrive off a
// socket, and next() either produces a complete message, asks for more,
// or fails the connection. Robustness is part of the contract:
//
//   * torn reads — a frame split at any byte boundary parses identically;
//   * pipelining — any number of back-to-back frames in one buffer;
//   * oversized frames — rejected from the *header* (a hostile
//     `$1000000000` cannot make the server buffer a gigabyte);
//   * malformed frames — bad digits, missing terminators, bulks outside
//     an array — fail fast with a diagnostic, never hang or crash;
//   * unterminated frames — a header line that never ends is rejected
//     once it exceeds its bounded length.
//
// A parser that returned kError is poisoned: the byte stream has lost
// framing, so the owner must send one final -ERR reply and close the
// connection. See ARCHITECTURE.md "Network front-end".
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flit::net {

// Parser bounds. They fit the KV store (values ≤ 8 MiB through the
// server; Record::kMaxValueBytes is the 64 MiB hard ceiling) while
// keeping a hostile header from committing the server to unbounded
// buffering.

/// Longest bulk string (one argument or one bulk reply).
inline constexpr std::size_t kMaxBulkBytes = std::size_t{8} << 20;
/// Most elements of one request (argv length, array or inline).
inline constexpr std::size_t kMaxArrayElems = 1024;
/// Longest inline command line.
inline constexpr std::size_t kMaxInlineBytes = std::size_t{64} << 10;
/// A `*`/`$` header line (punctuation + digits + CRLF) is tiny; one that
/// runs longer than this without a newline is garbage.
inline constexpr std::size_t kMaxHeaderBytes = 32;
/// Most (key, value) pairs one SCAN may ask for. The server rejects a
/// longer count, and a reply array may hold two elements per pair.
inline constexpr std::size_t kMaxScanPairs = 65536;

/// One parsed request: argv[0] is the command word (case-insensitive),
/// the rest its arguments, all binary-safe. The views point into the
/// RequestParser's buffer and stay valid until its next feed(), so a
/// reader parses every buffered request, uses them, and only then feeds
/// more. A reused Request keeps its argv capacity.
struct Request {
  std::vector<std::string_view> argv;
};

enum class ParseStatus {
  kOk,        ///< one complete message produced
  kNeedMore,  ///< frame incomplete; feed more bytes and retry
  kError,     ///< stream corrupt; reply -ERR and close the connection
};

namespace detail {

/// Strict decimal parse of a whole token (optional leading '-').
inline std::optional<std::int64_t> parse_i64(std::string_view s) noexcept {
  std::int64_t v = 0;
  if (s.empty()) return std::nullopt;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

/// The framing buffer both parsers share: feed() appends raw socket
/// bytes, pos_ marks the first unconsumed one, and a failure is sticky —
/// after kError the parser (and the connection) is dead, and error()
/// holds the diagnostic for the final -ERR reply.
class FrameBuffer {
 public:
  /// Drop the consumed prefix, then append `bytes`. Only feed() moves
  /// buffered bytes, so the views next() hands out stay valid until the
  /// next feed. The move copies only the unconsumed tail (a partial
  /// frame), and a frame that arrives over many feeds moves at most once.
  void feed(std::string_view bytes) {
    buf_.erase(0, pos_);
    pos_ = 0;
    buf_.append(bytes);
  }

  const std::string& error() const noexcept { return error_; }
  bool failed() const noexcept { return failed_; }
  /// Bytes buffered but not yet consumed by a complete message.
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 protected:
  ParseStatus fail(std::string msg) {
    failed_ = true;
    error_ = std::move(msg);
    return ParseStatus::kError;
  }

  /// Find the '\n' ending the line starting at `from`; the returned view
  /// excludes the terminator and any preceding '\r'. nullopt = incomplete.
  std::optional<std::string_view> take_line(std::size_t from,
                                            std::size_t& next_pos) const {
    const std::size_t nl = buf_.find('\n', from);
    if (nl == std::string::npos) return std::nullopt;
    std::size_t end = nl;
    if (end > from && buf_[end - 1] == '\r') --end;
    next_pos = nl + 1;
    return std::string_view(buf_).substr(from, end - from);
  }

  std::string buf_;
  std::size_t pos_ = 0;

 private:
  std::string error_;
  bool failed_ = false;
};

}  // namespace detail

/// Incremental request parser: next() extracts complete requests one at
/// a time from the fed bytes, as views into its buffer (see Request).
class RequestParser : public detail::FrameBuffer {
 public:
  /// On kOk `out` holds the next request; otherwise its argv is garbage.
  ParseStatus next(Request& out) {
    if (failed()) return ParseStatus::kError;
    for (;;) {
      if (pos_ >= buf_.size()) return ParseStatus::kNeedMore;
      const char c = buf_[pos_];
      if (c == '\r' || c == '\n') {  // stray blank line: skip it
        ++pos_;
        continue;
      }
      if (c == '*') return parse_array(out);
      if (c == '$') return fail("protocol: bulk string outside an array");
      const ParseStatus st = parse_inline(out);
      // A whitespace-only line is skipped here, in the loop, so a flood
      // of them costs no stack.
      if (st != ParseStatus::kOk || !out.argv.empty()) return st;
    }
  }

 private:
  /// `*<n>\r\n` then n bulk strings. Limit checks run on each *header* as
  /// soon as it is complete, before waiting for (or buffering) the body.
  ParseStatus parse_array(Request& out) {
    std::size_t p = pos_ + 1;  // past '*'
    std::size_t after = 0;
    const auto head = take_line(p, after);
    if (!head) {
      if (buf_.size() - pos_ > kMaxHeaderBytes) {
        return fail("protocol: unterminated array header");
      }
      return ParseStatus::kNeedMore;
    }
    const auto n = detail::parse_i64(*head);
    if (!n || *n < 1) return fail("protocol: bad array header");
    if (static_cast<std::uint64_t>(*n) > kMaxArrayElems) {
      return fail("protocol: array exceeds " +
                  std::to_string(kMaxArrayElems) + " elements");
    }
    std::vector<std::string_view>& argv = out.argv;
    argv.clear();
    argv.reserve(static_cast<std::size_t>(*n));
    p = after;
    for (std::int64_t i = 0; i < *n; ++i) {
      if (p >= buf_.size()) return ParseStatus::kNeedMore;
      if (buf_[p] != '$') return fail("protocol: expected bulk string");
      const auto blen = take_line(p + 1, after);
      if (!blen) {
        if (buf_.size() - p > kMaxHeaderBytes) {
          return fail("protocol: unterminated bulk header");
        }
        return ParseStatus::kNeedMore;
      }
      const auto len = detail::parse_i64(*blen);
      if (!len || *len < 0) return fail("protocol: bad bulk length");
      if (static_cast<std::uint64_t>(*len) > kMaxBulkBytes) {
        return fail("protocol: bulk exceeds " +
                    std::to_string(kMaxBulkBytes) + " bytes");
      }
      const auto need = static_cast<std::size_t>(*len);
      if (buf_.size() - after < need + 2) return ParseStatus::kNeedMore;
      if (buf_[after + need] != '\r' || buf_[after + need + 1] != '\n') {
        return fail("protocol: bulk payload not CRLF-terminated");
      }
      argv.push_back(std::string_view(buf_).substr(after, need));
      p = after + need + 2;
    }
    pos_ = p;
    return ParseStatus::kOk;
  }

  /// One line of space-separated tokens; kOk with an empty argv for a
  /// whitespace-only line.
  ParseStatus parse_inline(Request& out) {
    std::size_t after = 0;
    const auto line = take_line(pos_, after);
    if (!line) {
      if (buf_.size() - pos_ > kMaxInlineBytes) {
        return fail("protocol: unterminated inline command");
      }
      return ParseStatus::kNeedMore;
    }
    if (line->size() > kMaxInlineBytes) {
      return fail("protocol: inline command too long");
    }
    std::vector<std::string_view>& argv = out.argv;
    argv.clear();
    std::size_t i = 0;
    while (i < line->size()) {
      while (i < line->size() &&
             ((*line)[i] == ' ' || (*line)[i] == '\t')) {
        ++i;
      }
      std::size_t j = i;
      while (j < line->size() && (*line)[j] != ' ' && (*line)[j] != '\t') {
        ++j;
      }
      if (j > i) {
        if (argv.size() == kMaxArrayElems) {
          return fail("protocol: too many inline tokens");
        }
        argv.push_back(line->substr(i, j - i));
      }
      i = j;
    }
    pos_ = after;
    return ParseStatus::kOk;
  }
};

// --- reply serialization ----------------------------------------------------

namespace detail {

/// Append `tag`, the decimal `v` and CRLF: a RESP header line, formatted
/// on the stack.
template <class Int>
void append_header(std::string& out, char tag, Int v) {
  char line[24];  // tag, sign and 19 digits (or 20 unsigned), CRLF
  line[0] = tag;
  char* end = std::to_chars(line + 1, line + sizeof(line) - 2, v).ptr;
  *end++ = '\r';
  *end++ = '\n';
  out.append(line, end);
}

}  // namespace detail

inline void append_simple(std::string& out, std::string_view s) {
  out += '+';
  out += s;
  out += "\r\n";
}

/// `msg` should start with a code word, e.g. "ERR bad key".
inline void append_error(std::string& out, std::string_view msg) {
  out += '-';
  out += msg;
  out += "\r\n";
}

inline void append_integer(std::string& out, std::int64_t v) {
  detail::append_header(out, ':', v);
}

inline void append_bulk(std::string& out, std::string_view v) {
  detail::append_header(out, '$', v.size());
  out += v;
  out += "\r\n";
}

inline void append_null(std::string& out) { out += "$-1\r\n"; }

inline void append_array_header(std::string& out, std::size_t n) {
  detail::append_header(out, '*', n);
}

/// Serialize a request in the array framing (what the client and loadgen
/// send; binary-safe).
inline void append_request(std::string& out,
                           std::initializer_list<std::string_view> argv) {
  append_array_header(out, argv.size());
  for (const std::string_view a : argv) append_bulk(out, a);
}

// --- reply parsing (client side) --------------------------------------------

/// One parsed reply. kNull is the absent-value bulk ($-1).
struct Reply {
  enum class Type { kSimple, kError, kInteger, kBulk, kNull, kArray };
  Type type = Type::kNull;
  std::string str;           ///< simple / error / bulk payload
  std::int64_t integer = 0;  ///< kInteger
  std::vector<Reply> elems;  ///< kArray

  bool ok() const noexcept { return type == Type::kSimple && str == "OK"; }
  bool is_error() const noexcept { return type == Type::kError; }
  bool is_null() const noexcept { return type == Type::kNull; }
};

/// Incremental RESP reply parser (the client half). Same contract as
/// RequestParser: feed bytes, next() yields complete replies; kError
/// poisons the stream.
class ReplyParser : public detail::FrameBuffer {
 public:
  ParseStatus next(Reply& out) {
    if (failed()) return ParseStatus::kError;
    std::size_t p = pos_;
    const ParseStatus st = parse_one(out, p, /*depth=*/0);
    if (st == ParseStatus::kOk) pos_ = p;
    return st;
  }

 private:
  static constexpr int kMaxDepth = 4;

  ParseStatus parse_one(Reply& out, std::size_t& p, int depth) {
    if (depth > kMaxDepth) return fail("protocol: reply nested too deeply");
    if (p >= buf_.size()) return ParseStatus::kNeedMore;
    const char c = buf_[p];
    std::size_t after = 0;
    switch (c) {
      case '+':
      case '-': {
        const auto line = take_line(p + 1, after);
        if (!line) return need_line(p);
        out = {};
        out.type = c == '+' ? Reply::Type::kSimple : Reply::Type::kError;
        out.str = std::string(*line);
        p = after;
        return ParseStatus::kOk;
      }
      case ':': {
        const auto line = take_line(p + 1, after);
        if (!line) return need_line(p);
        const auto v = detail::parse_i64(*line);
        if (!v) return fail("protocol: bad integer reply");
        out = {};
        out.type = Reply::Type::kInteger;
        out.integer = *v;
        p = after;
        return ParseStatus::kOk;
      }
      case '$': {
        const auto line = take_line(p + 1, after);
        if (!line) return need_line(p);
        const auto len = detail::parse_i64(*line);
        if (!len || *len < -1) return fail("protocol: bad bulk length");
        if (*len == -1) {
          out = {};
          out.type = Reply::Type::kNull;
          p = after;
          return ParseStatus::kOk;
        }
        if (static_cast<std::uint64_t>(*len) > kMaxBulkBytes) {
          return fail("protocol: bulk reply too large");
        }
        const auto need = static_cast<std::size_t>(*len);
        if (buf_.size() - after < need + 2) return ParseStatus::kNeedMore;
        if (buf_[after + need] != '\r' || buf_[after + need + 1] != '\n') {
          return fail("protocol: bulk reply not CRLF-terminated");
        }
        out = {};
        out.type = Reply::Type::kBulk;
        out.str.assign(buf_, after, need);
        p = after + need + 2;
        return ParseStatus::kOk;
      }
      case '*': {
        const auto line = take_line(p + 1, after);
        if (!line) return need_line(p);
        const auto n = detail::parse_i64(*line);
        if (!n || *n < 0) return fail("protocol: bad array header");
        // Replies can legitimately be wide (SCAN returns 2 elements per
        // pair; MGET one per key, at most kMaxArrayElems), so the element
        // bound is looser than the request-side argv bound.
        if (static_cast<std::uint64_t>(*n) > 2 * kMaxScanPairs) {
          return fail("protocol: array reply too large");
        }
        Reply arr;
        arr.type = Reply::Type::kArray;
        arr.elems.reserve(static_cast<std::size_t>(*n));
        std::size_t q = after;
        for (std::int64_t i = 0; i < *n; ++i) {
          Reply elem;
          const ParseStatus st = parse_one(elem, q, depth + 1);
          if (st != ParseStatus::kOk) return st;
          arr.elems.push_back(std::move(elem));
        }
        out = std::move(arr);
        p = q;
        return ParseStatus::kOk;
      }
      default:
        return fail("protocol: unknown reply type byte");
    }
  }

  /// A header line is pending: wait, unless it can no longer terminate.
  ParseStatus need_line(std::size_t from) {
    if (buf_.size() - from > kMaxHeaderBytes + kMaxBulkBytes) {
      return fail("protocol: unterminated reply");
    }
    return ParseStatus::kNeedMore;
  }
};

}  // namespace flit::net
