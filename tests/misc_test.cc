// Coverage for the small common utilities: clocks, logging plumbing, and
// the lexer's token-level behaviour.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "parser/lexer.h"
#include "parser/parser.h"

namespace tcq {
namespace {

TEST(ClockTest, LogicalClockMonotonicAndConsecutive) {
  LogicalClock clock(1);
  EXPECT_EQ(clock.Tick(), 1);
  EXPECT_EQ(clock.Tick(), 2);
  EXPECT_EQ(clock.Peek(), 3);
  EXPECT_EQ(clock.Tick(), 3);
}

TEST(ClockTest, LogicalClockThreadSafe) {
  LogicalClock clock(1);
  std::vector<std::thread> threads;
  std::vector<std::vector<Timestamp>> seen(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&clock, &seen, t] {
      for (int i = 0; i < 1000; ++i) seen[t].push_back(clock.Tick());
    });
  }
  for (auto& th : threads) th.join();
  std::vector<Timestamp> all;
  for (auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<Timestamp>(i + 1));  // No dup, no gap.
  }
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.AdvanceTo(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceBy(5);
  EXPECT_EQ(clock.Now(), 105);
}

TEST(ClockTest, PhysicalNowIsMonotonic) {
  const Timestamp a = PhysicalNowMicros();
  const Timestamp b = PhysicalNowMicros();
  EXPECT_LE(a, b);
}

TEST(LoggingTest, ThresholdGatesLevels) {
  const LogLevel old = Logger::threshold();
  Logger::set_threshold(LogLevel::kError);
  EXPECT_FALSE(Logger::Enabled(LogLevel::kDebug));
  EXPECT_FALSE(Logger::Enabled(LogLevel::kWarn));
  EXPECT_TRUE(Logger::Enabled(LogLevel::kError));
  EXPECT_TRUE(Logger::Enabled(LogLevel::kFatal));
  Logger::set_threshold(old);
}

TEST(LoggingTest, DisabledLogIsCheap) {
  const LogLevel old = Logger::threshold();
  Logger::set_threshold(LogLevel::kOff);
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return "costly";
  };
  TCQ_LOG(Debug) << expensive();
  EXPECT_EQ(evaluations, 0);  // Streamed expression not evaluated.
  Logger::set_threshold(old);
}

TEST(LoggingTest, CheckPassesQuietly) {
  TCQ_CHECK(1 + 1 == 2) << "never shown";
  TCQ_DCHECK(true);
  SUCCEED();
}

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("select x1, 42 3.5 'str' ( ) { } ; . * + - / %");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].text, "x1");
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[4].float_value, 3.5);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[5].text, "str");
  EXPECT_EQ(kinds.back(), TokenKind::kEnd);
}

TEST(LexerTest, CompoundOperators) {
  auto tokens = Lex("== != <> <= >= += -= ++ = < >");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> expected = {
      TokenKind::kEq,     TokenKind::kNe,       TokenKind::kNe,
      TokenKind::kLe,     TokenKind::kGe,       TokenKind::kPlusEq,
      TokenKind::kMinusEq, TokenKind::kPlusPlus, TokenKind::kEq,
      TokenKind::kLt,     TokenKind::kGt,       TokenKind::kEnd};
  ASSERT_EQ(tokens->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*tokens)[i].kind, expected[i]) << i;
  }
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Lex("SeLeCt select SELECTX SELEC windowIS Count _by b_y");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);
  EXPECT_EQ((*tokens)[0].keyword, Keyword::kSelect);
  EXPECT_EQ((*tokens)[1].keyword, Keyword::kSelect);
  EXPECT_EQ((*tokens)[2].keyword, Keyword::kNone);
  EXPECT_EQ((*tokens)[3].keyword, Keyword::kNone);
  EXPECT_EQ((*tokens)[4].keyword, Keyword::kWindowIs);
  EXPECT_TRUE((*tokens)[4].IsReserved());
  EXPECT_EQ((*tokens)[5].keyword, Keyword::kCount);
  EXPECT_FALSE((*tokens)[5].IsReserved());  // Aggregates name columns too.
  EXPECT_EQ((*tokens)[6].keyword, Keyword::kNone);
  EXPECT_EQ((*tokens)[7].keyword, Keyword::kNone);
}

TEST(LexerTest, TokensPointIntoTheInput) {
  const std::string input = "SELECT price FROM S WHERE s = 'it''s'";
  auto tokens = Lex(input);
  ASSERT_TRUE(tokens.ok());
  const Token& price = (*tokens)[1];
  EXPECT_EQ(price.text.data(), input.data() + 7);
  EXPECT_EQ(price.offset, 7u);
  const Token& str = (*tokens)[7];
  EXPECT_EQ(str.kind, TokenKind::kString);
  EXPECT_EQ(str.text, "it''s");  // Escapes are undone by the parser.
  EXPECT_EQ(str.offset, 30u);
}

TEST(LexerTest, CommentsSkippedToEol) {
  auto tokens = Lex("a -- comment with symbols != { ;\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // a, b, end.
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, EscapedQuoteInString) {
  auto tokens = Lex("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it''s");  // The input's bytes.
  auto q = ParseQuery("SELECT a FROM S WHERE a = 'it''s'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where->right()->literal().string_value(), "it's");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("a # b").ok());
}

TEST(LexerTest, OffsetsPointIntoInput) {
  const std::string input = "ab  cd";
  auto tokens = Lex(input);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].offset, 0u);
  EXPECT_EQ((*tokens)[1].offset, 4u);
}

}  // namespace
}  // namespace tcq
