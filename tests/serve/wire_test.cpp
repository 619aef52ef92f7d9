// Wire framing (length-prefixed JSON + payload over a socketpair) and the
// minimal JSON layer underneath it.
#include "serve/wire.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include "errors/error.hpp"
#include "serve/json.hpp"

namespace ivt::serve {
namespace {

/// RAII socketpair; frames written on one end are read from the other.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_writer() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(WireTest, FrameRoundTrip) {
  SocketPair pair;
  const Frame sent{R"({"op":"ping"})", std::string("payload\0bytes", 13)};
  write_frame(pair.fds[0], sent);
  Frame received;
  ASSERT_TRUE(read_frame(pair.fds[1], received));
  EXPECT_EQ(received.json, sent.json);
  EXPECT_EQ(received.payload, sent.payload);
}

TEST(WireTest, EmptyPayloadRoundTrip) {
  SocketPair pair;
  write_frame(pair.fds[0], Frame{"{}", {}});
  Frame received;
  ASSERT_TRUE(read_frame(pair.fds[1], received));
  EXPECT_EQ(received.json, "{}");
  EXPECT_TRUE(received.payload.empty());
}

TEST(WireTest, CleanEofReturnsFalse) {
  SocketPair pair;
  pair.close_writer();
  Frame received;
  EXPECT_FALSE(read_frame(pair.fds[1], received));
}

TEST(WireTest, TruncatedFrameThrowsIo) {
  SocketPair pair;
  // A valid header promising more bytes than ever arrive.
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t json_len = 100;
  const std::uint32_t payload_len = 0;
  ASSERT_EQ(::send(pair.fds[0], &magic, 4, 0), 4);
  ASSERT_EQ(::send(pair.fds[0], &json_len, 4, 0), 4);
  ASSERT_EQ(::send(pair.fds[0], &payload_len, 4, 0), 4);
  ASSERT_EQ(::send(pair.fds[0], "abc", 3, 0), 3);
  pair.close_writer();
  Frame received;
  try {
    read_frame(pair.fds[1], received);
    FAIL() << "expected errors::Error";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Io);
  }
}

TEST(WireTest, BadMagicThrowsFormat) {
  SocketPair pair;
  const char junk[12] = "XXXXYYYYZZZ";
  ASSERT_EQ(::send(pair.fds[0], junk, 12, 0), 12);
  Frame received;
  try {
    read_frame(pair.fds[1], received);
    FAIL() << "expected errors::Error";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Format);
  }
}

TEST(WireTest, OversizedJsonLengthThrowsFormat) {
  SocketPair pair;
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t json_len = kMaxJsonBytes + 1;
  const std::uint32_t payload_len = 0;
  ASSERT_EQ(::send(pair.fds[0], &magic, 4, 0), 4);
  ASSERT_EQ(::send(pair.fds[0], &json_len, 4, 0), 4);
  ASSERT_EQ(::send(pair.fds[0], &payload_len, 4, 0), 4);
  Frame received;
  try {
    read_frame(pair.fds[1], received);
    FAIL() << "expected errors::Error";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Format);
  }
}

TEST(WireTest, LargePayloadRoundTrip) {
  SocketPair pair;
  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  // A megabyte exceeds the socket buffer, so writer and reader must run
  // concurrently.
  std::thread writer(
      [&] { write_frame(pair.fds[0], Frame{R"({"big":true})", payload}); });
  Frame received;
  ASSERT_TRUE(read_frame(pair.fds[1], received));
  writer.join();
  EXPECT_EQ(received.payload, payload);
}

void ignore_signal(int /*signo*/) {}

TEST(WireTest, ShortWritesResumeWhereTheyStopped) {
  // A signal that lands while a blocking send waits on a full socket
  // buffer ends the call with a partial count (no SA_RESTART). Signal the
  // writer between reads so its gather writes keep stopping part-way, in
  // the JSON body first and then in the payload.
  struct sigaction handler {};
  handler.sa_handler = ignore_signal;
  sigemptyset(&handler.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGUSR1, &handler, &saved), 0);

  SocketPair pair;
  const int small = 4096;
  ::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  Frame sent{std::string(40000, ' '), std::string(200000, '\0')};
  sent.json.front() = '{';
  sent.json.back() = '}';
  for (std::size_t i = 0; i < sent.payload.size(); ++i) {
    sent.payload[i] = static_cast<char>(i * 131 + (i >> 8));
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    write_frame(pair.fds[0], sent);
    done.store(true);
  });
  const std::size_t total = 12 + sent.json.size() + sent.payload.size();
  std::string wire;
  char buf[4096];
  while (wire.size() < total) {
    if (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ::pthread_kill(writer.native_handle(), SIGUSR1);
    }
    const ssize_t got = ::read(pair.fds[1], buf, sizeof(buf));
    ASSERT_GT(got, 0);
    wire.append(buf, static_cast<std::size_t>(got));
  }
  writer.join();
  ::sigaction(SIGUSR1, &saved, nullptr);

  ASSERT_EQ(wire.size(), total);
  // The bytes on the wire must parse back to the frame that was sent.
  SocketPair replay;
  std::thread feeder([&] {
    ASSERT_EQ(::send(replay.fds[0], wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  });
  Frame received;
  ASSERT_TRUE(read_frame(replay.fds[1], received));
  feeder.join();
  EXPECT_EQ(received.json, sent.json);
  EXPECT_EQ(received.payload, sent.payload);
}

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, ParsesScalarsExactly) {
  const json::Value v = json::parse(
      R"({"i": 9007199254740993, "d": 1.5, "s": "x", "b": true, "n": null})");
  // 2^53 + 1 is not representable in a double; the parser must keep it.
  EXPECT_EQ(v.get_int("i", 0), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(v.get_double("d", 0.0), 1.5);
  EXPECT_EQ(v.get_string("s", ""), "x");
  EXPECT_TRUE(v.get_bool("b", false));
  ASSERT_NE(v.find("n"), nullptr);
  EXPECT_TRUE(v.find("n")->is_null());
}

TEST(JsonTest, ParsesNestedArraysAndObjects) {
  const json::Value v =
      json::parse(R"({"signals": ["a", "b"], "nested": {"k": [1, 2, 3]}})");
  EXPECT_EQ(v.get_string_list("signals"),
            (std::vector<std::string>{"a", "b"}));
  const json::Value* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  const json::Value* k = nested->find("k");
  ASSERT_NE(k, nullptr);
  ASSERT_TRUE(k->is_array());
  EXPECT_EQ(k->array().size(), 3u);
  EXPECT_EQ(k->array()[2].integer(), 3);
}

TEST(JsonTest, StringEscapes) {
  const json::Value v =
      json::parse("{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
  EXPECT_EQ(v.get_string("s", ""), "a\"b\\c\n\tA");
}

TEST(JsonTest, MalformedInputThrowsDecode) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\": }", "tru", "{\"a\":1} extra"}) {
    try {
      (void)json::parse(bad);
      FAIL() << "expected errors::Error for: " << bad;
    } catch (const errors::Error& e) {
      EXPECT_EQ(e.category(), errors::Category::Decode) << bad;
    }
  }
}

TEST(JsonTest, PresentWrongTypeThrowsDecode) {
  const json::Value v = json::parse(R"({"n": "not a number"})");
  EXPECT_EQ(v.get_int("absent", 7), 7);  // absent -> fallback
  try {
    (void)v.get_int("n", 0);  // present but wrong type -> typed error
    FAIL() << "expected errors::Error";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Decode);
  }
}

TEST(JsonTest, ObjectBuilderRendersParseableJson) {
  json::Object nested;
  nested.add("k", std::int64_t{42});
  json::Object obj;
  obj.add("s", "quote\"and\\slash")
      .add("i", std::int64_t{-7})
      .add("b", false)
      .raw("nested", nested.str())
      .raw("arr", json::render_array({"x", "y"}));
  const json::Value v = json::parse(obj.str());
  EXPECT_EQ(v.get_string("s", ""), "quote\"and\\slash");
  EXPECT_EQ(v.get_int("i", 0), -7);
  EXPECT_FALSE(v.get_bool("b", true));
  ASSERT_NE(v.find("nested"), nullptr);
  EXPECT_EQ(v.find("nested")->get_int("k", 0), 42);
  EXPECT_EQ(v.get_string_list("arr"), (std::vector<std::string>{"x", "y"}));
}

}  // namespace
}  // namespace ivt::serve
