// Lexer/parser tests: the SQL front end every generated test case passes
// through, including render → parse round-trips.
#include <gtest/gtest.h>

#include "src/sqlparser/lexer.h"
#include "src/sqlparser/parser.h"

namespace soft {
namespace {

ExprPtr Expr_(const std::string& sql) {
  Result<ExprPtr> e = ParseExpression(sql);
  EXPECT_TRUE(e.ok()) << sql << ": " << e.status().ToString();
  return e.ok() ? std::move(e).value() : nullptr;
}

TEST(Lexer, TokenKinds) {
  const Result<std::vector<Token>> tokens = Tokenize("SELECT 'a''b', 1.5, x'FF' :: ;");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 7u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[1].text, "a'b");
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kBlobHex);
  EXPECT_EQ((*tokens)[5].text, "\xFF");
  EXPECT_TRUE((*tokens)[6].IsOp("::"));
}

TEST(Lexer, Comments) {
  const Result<std::vector<Token>> tokens =
      Tokenize("SELECT 1 -- trailing\n + /* block */ 2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 5u);  // SELECT 1 + 2 END
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("x'ABC'").ok());  // odd hex length
  EXPECT_FALSE(Tokenize("x'XY'").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
  EXPECT_FALSE(Tokenize("/* unterminated").ok());
}

TEST(ParserExpr, NumberTyping) {
  EXPECT_EQ(Expr_("42")->literal.kind(), TypeKind::kInt);
  EXPECT_EQ(Expr_("1.5")->literal.kind(), TypeKind::kDecimal);
  EXPECT_EQ(Expr_("1.5e0")->literal.kind(), TypeKind::kDouble);
  // Over-int64 integers stay exact decimals (the AVG bug class needs this).
  const ExprPtr big = Expr_("123456789012345678901234567890");
  EXPECT_EQ(big->literal.kind(), TypeKind::kDecimal);
  EXPECT_EQ(big->literal.decimal_value().total_digits(), 30);
}

TEST(ParserExpr, NegativeLiteralFolding) {
  const ExprPtr e = Expr_("-0.99999");
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_TRUE(e->literal.decimal_value().negative());
}

TEST(ParserExpr, Precedence) {
  EXPECT_EQ(Expr_("1 + 2 * 3")->ToSql(), "(1 + (2 * 3))");
  EXPECT_EQ(Expr_("(1 + 2) * 3")->ToSql(), "((1 + 2) * 3)");
  EXPECT_EQ(Expr_("NOT 1 = 2")->ToSql(), "(NOT (1 = 2))");
  EXPECT_EQ(Expr_("1 = 2 OR 3 < 4 AND 5 > 6")->ToSql(),
            "((1 = 2) OR ((3 < 4) AND (5 > 6)))");
}

TEST(ParserExpr, PrefixOperatorRuns) {
  // Signs apply innermost first and fold into numeric literals.
  EXPECT_EQ(Expr_("- + - 7")->literal.int_value(), 7);
  EXPECT_EQ(Expr_("- - - 7")->literal.int_value(), -7);
  EXPECT_EQ(Expr_("- - a")->ToSql(), "(-(-a))");
  EXPECT_EQ(Expr_("NOT NOT 1 = 2")->ToSql(), "(NOT (NOT (1 = 2)))");
}

TEST(ParserExpr, CastForms) {
  const ExprPtr c1 = Expr_("CAST('12' AS INT)");
  EXPECT_EQ(c1->kind, ExprKind::kCast);
  EXPECT_EQ(c1->cast_type, TypeKind::kInt);
  const ExprPtr c2 = Expr_("'110'::Decimal256(45)");
  EXPECT_EQ(c2->kind, ExprKind::kCast);
  EXPECT_EQ(c2->cast_type, TypeKind::kDecimal);
  EXPECT_EQ(c2->cast_type_text, "Decimal256(45)");
}

TEST(ParserExpr, FunctionCalls) {
  const ExprPtr e = Expr_("JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')");
  ASSERT_EQ(e->kind, ExprKind::kFunctionCall);
  EXPECT_EQ(e->func_name, "JSON_LENGTH");
  EXPECT_EQ(e->args.size(), 2u);
  EXPECT_EQ(e->CountFunctionCalls(), 2);
  const ExprPtr agg = Expr_("JSONB_OBJECT_AGG(DISTINCT 'a', 'abc')");
  EXPECT_TRUE(agg->distinct_arg);
}

TEST(ParserExpr, StarRowArray) {
  EXPECT_TRUE(Expr_("*")->literal.is_star());
  EXPECT_EQ(Expr_("COUNT(*)")->args[0]->literal.kind(), TypeKind::kStar);
  EXPECT_EQ(Expr_("ROW(1, 1)")->kind, ExprKind::kRowCtor);
  EXPECT_EQ(Expr_("ARRAY[1, 2]")->kind, ExprKind::kArrayCtor);
  EXPECT_EQ(Expr_("ARRAY[]")->args.size(), 0u);
}

TEST(ParserExpr, DateLiterals) {
  EXPECT_EQ(Expr_("DATE '2024-06-15'")->literal.kind(), TypeKind::kDate);
  EXPECT_EQ(Expr_("TIMESTAMP '2024-06-15 10:00:00'")->literal.kind(),
            TypeKind::kDateTime);
  EXPECT_FALSE(ParseExpression("DATE '2024-13-01'").ok());
}

TEST(ParserStmt, SelectClauses) {
  const Result<Statement> s = ParseStatement(
      "SELECT a, SUM(b) AS total FROM t WHERE a > 1 GROUP BY a "
      "HAVING SUM(b) > 2 ORDER BY total DESC LIMIT 10");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const SelectStmt* sel = s->select();
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->items.size(), 2u);
  EXPECT_EQ(sel->items[1].alias, "total");
  EXPECT_EQ(sel->from_table, "t");
  EXPECT_NE(sel->where, nullptr);
  EXPECT_EQ(sel->group_by.size(), 1u);
  EXPECT_NE(sel->having, nullptr);
  EXPECT_FALSE(sel->order_by[0].ascending);
  EXPECT_EQ(sel->limit, 10);
}

TEST(ParserStmt, UnionChain) {
  const Result<Statement> s = ParseStatement("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3");
  ASSERT_TRUE(s.ok());
  const SelectStmt* sel = s->select();
  ASSERT_NE(sel->union_next, nullptr);
  EXPECT_TRUE(sel->union_all);
  ASSERT_NE(sel->union_next->union_next, nullptr);
  EXPECT_FALSE(sel->union_next->union_all);
}

TEST(ParserStmt, CreateInsertDrop) {
  const Result<Statement> create = ParseStatement(
      "CREATE TABLE t (a INT NOT NULL, b VARCHAR(10), c DECIMAL(10,2))");
  ASSERT_TRUE(create.ok());
  const auto& ct = std::get<CreateTableStmt>(create->node);
  EXPECT_EQ(ct.columns.size(), 3u);
  EXPECT_TRUE(ct.columns[0].not_null);
  EXPECT_EQ(ct.columns[2].type, TypeKind::kDecimal);

  EXPECT_TRUE(ParseStatement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").ok());
  EXPECT_TRUE(ParseStatement("DROP TABLE IF EXISTS t").ok());
}

TEST(ParserStmt, Script) {
  const Result<std::vector<Statement>> script =
      ParseScript("SELECT 1; SELECT 2;; SELECT 3");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 3u);
}

TEST(ParserStmt, Errors) {
  EXPECT_FALSE(ParseStatement("SELECT").ok());
  EXPECT_FALSE(ParseStatement("SELECT 1 FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT F(").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE").ok());
  EXPECT_FALSE(ParseStatement("SELECT 1 2").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES").ok());
}

// Property: rendering and reparsing is a fixpoint for a corpus of shapes.
class RenderRoundTripTest : public testing::TestWithParam<const char*> {};

TEST_P(RenderRoundTripTest, RenderParseRender) {
  const Result<Statement> first = ParseStatement(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam() << ": " << first.status().ToString();
  const std::string rendered = first->ToSql();
  const Result<Statement> second = ParseStatement(rendered);
  ASSERT_TRUE(second.ok()) << rendered;
  EXPECT_EQ(second->ToSql(), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RenderRoundTripTest,
    testing::Values(
        "SELECT 1",
        "SELECT -0.99999",
        "SELECT 'it''s', x'AB'",
        "SELECT UPPER(LOWER('x'))",
        "SELECT COUNT(*) FROM t",
        "SELECT CAST('1' AS INT) + 2 * 3",
        "SELECT a FROM t WHERE a > 1 AND b IS NOT NULL ORDER BY a DESC LIMIT 5",
        "SELECT SUM(DISTINCT a) FROM t GROUP BY b HAVING SUM(a) > 0",
        "SELECT 1 UNION ALL SELECT 2",
        "SELECT (SELECT MAX(a) FROM t) + 1",
        "SELECT ROW(1, 2), ARRAY[1, 2]",
        "SELECT x FROM (SELECT 1 AS x) sub",
        "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
        "CREATE TABLE t (a INT NOT NULL, b STRING)",
        "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')"));

// Recursion-depth limits: pathological nesting must produce a clean
// resource error, never exhaust the real stack. The budget is shared
// between expression nesting and SELECT nesting (parenthesized selects,
// subqueries, and UNION chains all recurse through ParseSelect).
TEST(ParserDepth, DeepParenthesizedExpressionErrorsCleanly) {
  const std::string deep =
      "SELECT " + std::string(5000, '(') + "1" + std::string(5000, ')');
  const Result<Statement> r = ParseStatement(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

TEST(ParserDepth, ModerateParenthesizedExpressionStillParses) {
  const std::string ok =
      "SELECT " + std::string(300, '(') + "1" + std::string(300, ')');
  EXPECT_TRUE(ParseStatement(ok).ok());
}

TEST(ParserDepth, DeepParenthesizedSelectErrorsCleanly) {
  // ((((SELECT 1)))) — recursion through ParseSelect's paren branch, which
  // the expression depth parameter never saw.
  std::string deep;
  for (int i = 0; i < 2000; ++i) {
    deep += "(";
  }
  deep += "SELECT 1";
  for (int i = 0; i < 2000; ++i) {
    deep += ")";
  }
  const Result<Statement> r = ParseStatement(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

TEST(ParserDepth, DeepScalarSubqueryErrorsCleanly) {
  // SELECT (SELECT (SELECT ... )) — each level resets the expression depth
  // at a clause boundary; only the shared SELECT budget bounds it.
  std::string deep = "SELECT ";
  for (int i = 0; i < 2000; ++i) {
    deep += "(SELECT ";
  }
  deep += "1";
  for (int i = 0; i < 2000; ++i) {
    deep += ")";
  }
  const Result<Statement> r = ParseStatement(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

TEST(ParserDepth, ModerateSubqueryNestingStillParses) {
  std::string ok = "SELECT ";
  for (int i = 0; i < 50; ++i) {
    ok += "(SELECT ";
  }
  ok += "1";
  for (int i = 0; i < 50; ++i) {
    ok += ")";
  }
  EXPECT_TRUE(ParseStatement(ok).ok());
}

TEST(ParserDepth, LongPrefixOperatorRunsErrorCleanly) {
  // Runs of NOTs and signs are parsed in a loop, so even 100 000 of them
  // cost no stack; each one still counts against the nesting budget.
  for (const char* op : {"- ", "+ ", "NOT "}) {
    std::string deep = "SELECT ";
    for (int i = 0; i < 100000; ++i) {
      deep += op;
    }
    deep += "1";
    const Result<Statement> r = ParseStatement(deep);
    ASSERT_FALSE(r.ok()) << op;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << op << r.status().ToString();
  }
}

TEST(ParserDepth, DeepCallNestingErrorsCleanly) {
  // Function calls, casts and constructors recurse through the same budget
  // as parenthesized expressions.
  for (const char* open : {"ABS(", "CAST(", "ROW(", "ARRAY["}) {
    std::string deep = "SELECT ";
    for (int i = 0; i < 5000; ++i) {
      deep += open;
    }
    deep += "1";
    const Result<Statement> r = ParseStatement(deep);
    ASSERT_FALSE(r.ok()) << open;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << open << r.status().ToString();
  }
}

TEST(ParserDepth, LongUnionChainErrorsCleanly) {
  std::string deep = "SELECT 1";
  for (int i = 0; i < 2000; ++i) {
    deep += " UNION ALL SELECT 1";
  }
  const Result<Statement> r = ParseStatement(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

}  // namespace
}  // namespace soft
