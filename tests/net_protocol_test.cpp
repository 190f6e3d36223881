// Robustness tests for the incremental wire-protocol parsers
// (src/net/protocol.hpp): torn byte-at-a-time feeds, pipelined runs,
// binary-safe payloads, and hostile input — oversized, malformed, and
// unterminated frames must produce kError (so the server can send one
// -ERR and close), never a crash, hang, or silent misparse.
#include "net/protocol.hpp"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace flit::net {
namespace {

std::string frame(std::initializer_list<std::string_view> argv) {
  std::string out;
  append_request(out, argv);
  return out;
}

/// Every request parsed from the bytes fed so far. Their argv views
/// point into the parser's buffer and die at its next feed().
std::vector<Request> drain(RequestParser& p) {
  std::vector<Request> reqs;
  Request r;
  while (p.next(r) == ParseStatus::kOk) reqs.push_back(std::move(r));
  return reqs;
}

using Args = std::vector<std::string_view>;

/// A request's arguments as strings, to outlive the parser's next feed.
std::vector<std::string> owned(const Request& r) {
  return {r.argv.begin(), r.argv.end()};
}

TEST(RequestParser, ParsesSingleArrayFrame) {
  RequestParser p;
  p.feed(frame({"SET", "42", "hello"}));
  Request r;
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  ASSERT_EQ(r.argv.size(), 3u);
  EXPECT_EQ(r.argv[0], "SET");
  EXPECT_EQ(r.argv[1], "42");
  EXPECT_EQ(r.argv[2], "hello");
  EXPECT_EQ(p.next(r), ParseStatus::kNeedMore);
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, TornByteAtATimeFeed) {
  // The defining incremental-parser property: a frame split at EVERY
  // byte boundary parses identically to one fed whole.
  const std::string wire =
      frame({"SET", "1", "alpha"}) + frame({"GET", "1"});
  RequestParser p;
  std::vector<std::vector<std::string>> got;
  for (const char c : wire) {
    p.feed(std::string_view(&c, 1));
    for (const Request& r : drain(p)) got.push_back(owned(r));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"SET", "1", "alpha"}));
  EXPECT_EQ(got[1], (std::vector<std::string>{"GET", "1"}));
}

TEST(RequestParser, PipelinedRunInOneBuffer) {
  std::string wire;
  for (int i = 0; i < 64; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    wire += frame({"SET", std::to_string(i), v});
  }
  RequestParser p;
  p.feed(wire);
  const auto reqs = drain(p);
  ASSERT_EQ(reqs.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(reqs[static_cast<std::size_t>(i)].argv[1], std::to_string(i));
  }
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, ViewsStayValidUntilTheNextFeed) {
  // Well past 64 KiB of pipelined SETs in one feed — where next() used
  // to compact its buffer mid-parse, moving the bytes under the views of
  // requests it had already returned — plus half of one more frame.
  std::vector<std::string> values;
  std::string wire;
  for (int i = 0; wire.size() <= (std::size_t{160} << 10); ++i) {
    values.emplace_back(static_cast<std::size_t>(100 + i % 64),
                        static_cast<char>('a' + i % 26));
    wire += frame({"SET", std::to_string(i), values.back()});
  }
  const std::string last = frame({"SET", "-1", "the frame fed in two"});
  const std::size_t half = last.size() / 2;
  RequestParser p;
  p.feed(wire + last.substr(0, half));
  const std::vector<Request> reqs = drain(p);
  ASSERT_EQ(reqs.size(), values.size());
  // Every request parsed first, then every view checked.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::string key = std::to_string(i);
    EXPECT_EQ(reqs[i].argv, (Args{"SET", key, values[i]})) << i;
  }
  EXPECT_EQ(p.buffered(), half);
  // The next feed drops the consumed prefix and keeps the partial frame.
  p.feed(std::string_view(last).substr(half));
  EXPECT_EQ(p.buffered(), last.size());
  Request r;
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_EQ(r.argv, (Args{"SET", "-1", "the frame fed in two"}));
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, BinarySafeValues) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload += static_cast<char>(i);
  payload += "\r\n$6\r\n";  // protocol bytes inside a value must not confuse
  RequestParser p;
  p.feed(frame({"SET", "7", payload}));
  Request r;
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_EQ(r.argv[2], payload);
}

TEST(RequestParser, InlineCommands) {
  RequestParser p;
  p.feed("PING\r\n  GET   17  \n\r\nSET 3 abc\n");
  const auto reqs = drain(p);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].argv, (Args{"PING"}));
  EXPECT_EQ(reqs[1].argv, (Args{"GET", "17"}));
  EXPECT_EQ(reqs[2].argv, (Args{"SET", "3", "abc"}));

  // A flood of whitespace-only lines is skipped without growing the
  // stack: one frame per line used to crash the server.
  RequestParser flooded;
  std::string blanks;
  for (int i = 0; i < 200'000; ++i) blanks += " \r\n";
  flooded.feed(blanks + "PING\r\n");
  const auto after_blanks = drain(flooded);
  ASSERT_EQ(after_blanks.size(), 1u);
  EXPECT_EQ(after_blanks[0].argv, (Args{"PING"}));
}

TEST(RequestParser, InlineTornFeed) {
  RequestParser p;
  const std::string wire = "SET 5 torn-inline\n";
  std::vector<std::vector<std::string>> got;
  for (const char c : wire) {
    p.feed(std::string_view(&c, 1));
    for (const Request& r : drain(p)) got.push_back(owned(r));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"SET", "5", "torn-inline"}));
}

TEST(RequestParser, OversizedBulkRejectedFromHeader) {
  // The hostile header alone must fail the stream — before the server
  // commits to buffering the announced gigabyte.
  RequestParser p;
  p.feed("*2\r\n$3\r\nGET\r\n$1000000000\r\n");
  Request r;
  EXPECT_EQ(p.next(r), ParseStatus::kError);
  EXPECT_TRUE(p.failed());
  EXPECT_NE(p.error().find("bulk exceeds"), std::string::npos);
}

TEST(RequestParser, OversizedArrayRejected) {
  RequestParser p;
  p.feed("*99999999\r\n");
  Request r;
  EXPECT_EQ(p.next(r), ParseStatus::kError);
  EXPECT_NE(p.error().find("array exceeds"), std::string::npos);
}

TEST(RequestParser, MalformedFramesRejected) {
  const char* bad[] = {
      "*x\r\n",                 // non-numeric array header
      "*-3\r\n",                // negative array header
      "*1\r\n$abc\r\n",         // non-numeric bulk length
      "*1\r\n$-5\r\n",          // negative bulk length
      "*1\r\nxoink\r\n",        // array element that is not a bulk
      "$5\r\nhello\r\n",        // bulk outside an array
      "*1\r\n$3\r\nabcXY",      // payload not CRLF-terminated
  };
  for (const char* wire : bad) {
    RequestParser p;
    p.feed(wire);
    Request r;
    EXPECT_EQ(p.next(r), ParseStatus::kError) << wire;
    EXPECT_TRUE(p.failed()) << wire;
  }
}

TEST(RequestParser, ErrorStateIsSticky) {
  RequestParser p;
  p.feed("*x\r\n");
  Request r;
  ASSERT_EQ(p.next(r), ParseStatus::kError);
  // A poisoned parser stays poisoned even if valid bytes arrive later:
  // framing is lost for good.
  p.feed(frame({"PING"}));
  EXPECT_EQ(p.next(r), ParseStatus::kError);
}

TEST(RequestParser, UnterminatedHeaderRejected) {
  // A header line that never ends must not buffer forever.
  RequestParser p;
  p.feed("*123456789012345678901234567890123456789");
  Request r;
  EXPECT_EQ(p.next(r), ParseStatus::kError);
  EXPECT_NE(p.error().find("unterminated"), std::string::npos);
}

TEST(RequestParser, UnterminatedInlineRejected) {
  RequestParser p;
  std::string noisy(kMaxInlineBytes + 2, 'a');  // no newline ever
  p.feed(noisy);
  Request r;
  EXPECT_EQ(p.next(r), ParseStatus::kError);
}

TEST(RequestParser, IncompleteFrameJustWaits) {
  RequestParser p;
  const std::string whole = frame({"SET", "1", "value"});
  p.feed(std::string_view(whole).substr(0, whole.size() - 3));
  Request r;
  EXPECT_EQ(p.next(r), ParseStatus::kNeedMore);
  EXPECT_FALSE(p.failed());
  p.feed(std::string_view(whole).substr(whole.size() - 3));
  EXPECT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_EQ(r.argv[2], "value");
}

TEST(RequestParser, ExactBoundsFromHeaders) {
  // Each bound is checked on its header: at the bound the parser waits
  // for the body, one past it fails the stream.
  const auto status = [](std::string_view wire) {
    RequestParser p;
    p.feed(wire);
    Request r;
    return p.next(r);
  };
  EXPECT_EQ(kMaxArrayElems, 1024u);
  EXPECT_EQ(kMaxBulkBytes, 8388608u);
  EXPECT_EQ(status("*1024\r\n"), ParseStatus::kNeedMore);
  EXPECT_EQ(status("*1025\r\n"), ParseStatus::kError);
  EXPECT_EQ(status("*1\r\n$8388608\r\n"), ParseStatus::kNeedMore);
  EXPECT_EQ(status("*1\r\n$8388609\r\n"), ParseStatus::kError);
}

// --- reply side -------------------------------------------------------------

TEST(ReplyParser, RoundTripsEveryReplyType) {
  std::string wire;
  append_simple(wire, "OK");
  append_error(wire, "ERR nope");
  append_integer(wire, -42);
  append_bulk(wire, "payload");
  append_null(wire);
  append_array_header(wire, 2);
  append_bulk(wire, "k");
  append_bulk(wire, "v");

  ReplyParser p;
  p.feed(wire);
  Reply r;
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_TRUE(r.is_error());
  EXPECT_EQ(r.str, "ERR nope");
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_EQ(r.type, Reply::Type::kInteger);
  EXPECT_EQ(r.integer, -42);
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_EQ(r.type, Reply::Type::kBulk);
  EXPECT_EQ(r.str, "payload");
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  EXPECT_TRUE(r.is_null());
  ASSERT_EQ(p.next(r), ParseStatus::kOk);
  ASSERT_EQ(r.type, Reply::Type::kArray);
  ASSERT_EQ(r.elems.size(), 2u);
  EXPECT_EQ(r.elems[0].str, "k");
  EXPECT_EQ(r.elems[1].str, "v");
  EXPECT_EQ(p.next(r), ParseStatus::kNeedMore);
}

TEST(ReplyParser, TornFeed) {
  std::string wire;
  append_array_header(wire, 3);
  append_bulk(wire, "a");
  append_null(wire);
  append_integer(wire, 7);
  ReplyParser p;
  Reply r;
  std::size_t got = 0;
  for (const char c : wire) {
    p.feed(std::string_view(&c, 1));
    while (p.next(r) == ParseStatus::kOk) ++got;
  }
  ASSERT_EQ(got, 1u);
  ASSERT_EQ(r.elems.size(), 3u);
  EXPECT_EQ(r.elems[0].str, "a");
  EXPECT_TRUE(r.elems[1].is_null());
  EXPECT_EQ(r.elems[2].integer, 7);
}

TEST(ReplyParser, RejectsGarbageAndDeepNesting) {
  {
    ReplyParser p;
    p.feed("?what\r\n");
    Reply r;
    EXPECT_EQ(p.next(r), ParseStatus::kError);
  }
  {
    ReplyParser p;
    std::string wire;
    for (int i = 0; i < 8; ++i) append_array_header(wire, 1);
    append_bulk(wire, "deep");
    p.feed(wire);
    Reply r;
    EXPECT_EQ(p.next(r), ParseStatus::kError);
  }
}

}  // namespace
}  // namespace flit::net
