#include "src/sqlparser/parser.h"

#include <charconv>

#include "src/failpoint/failpoint.h"
#include "src/sqlparser/lexer.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

// Maximum recursion budget the parser accepts; beyond this it reports a
// parse-stage resource error (a real parser would risk a stack overflow —
// one of the injected parse-stage bug classes keys on this depth). The
// budget is shared between expression nesting (one unit per precedence
// level, threaded as the `depth` parameter) and SELECT nesting (charged to
// the member counter `depth_used_` below, so it survives the `ParseExpr(0)`
// resets at clause boundaries — parenthesized selects, subqueries, and
// UNION chains all recurse through ParseSelect). One parenthesized level
// costs 7 units, so 2400 admits ~340 levels: about 0.7 MB of stack in an
// optimized build and under 5 MB with AddressSanitizer plus UBSan, inside
// the usual 8 MB main-thread stack either way.
constexpr int kMaxParseDepth = 2400;

// One SELECT level costs this much of the shared budget: descending into a
// subquery stacks the full precedence chain plus the select-clause
// machinery — many real stack frames — where one parenthesized expression
// level costs roughly one frame per precedence step.
constexpr int kSelectDepthCost = 16;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseSingleStatement() {
    SOFT_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInternal());
    ConsumeOp(";");
    if (!AtEnd()) {
      return ParseError("unexpected trailing tokens after statement");
    }
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      if (ConsumeOp(";")) {
        continue;
      }
      SOFT_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInternal());
      out.push_back(std::move(stmt));
      if (!AtEnd() && !ConsumeOp(";")) {
        return ParseError("expected ';' between statements");
      }
    }
    return out;
  }

  Result<ExprPtr> ParseSingleExpression() {
    SOFT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(0));
    if (!AtEnd()) {
      return ParseError("unexpected trailing tokens after expression");
    }
    return e;
  }

 private:
  // Charges a fixed slice of the recursion budget for the lifetime of one
  // recursive call (ParseSelect); the caller checks the limit first.
  class DepthGuard {
   public:
    DepthGuard(Parser& parser, int cost) : parser_(parser), cost_(cost) {
      parser_.depth_used_ += cost_;
    }
    ~DepthGuard() { parser_.depth_used_ -= cost_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& parser_;
    int cost_;
  };

  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool ConsumeOp(std::string_view symbol) {
    if (Peek().IsOp(symbol)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectOp(std::string_view symbol) {
    if (!ConsumeOp(symbol)) {
      return ParseError("expected '" + std::string(symbol) + "' near '" + Peek().text + "'");
    }
    return OkStatus();
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return ParseError("expected " + std::string(kw) + " near '" + Peek().text + "'");
    }
    return OkStatus();
  }

  Result<Statement> ParseStatementInternal() {
    SOFT_FAILPOINT("parse.enter");
    if (Peek().IsKeyword("SELECT") || Peek().IsOp("(")) {
      SOFT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect());
      Statement stmt;
      stmt.node = std::move(sel);
      return stmt;
    }
    if (Peek().IsKeyword("CREATE")) {
      return ParseCreateTable();
    }
    if (Peek().IsKeyword("INSERT")) {
      return ParseInsert();
    }
    if (Peek().IsKeyword("DROP")) {
      return ParseDropTable();
    }
    return ParseError("unsupported statement starting with '" + Peek().text + "'");
  }

  // ---- SELECT --------------------------------------------------------------

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    if (depth_used_ + kSelectDepthCost > kMaxParseDepth) {
      return ResourceExhausted("statement nesting too deep for parser");
    }
    const DepthGuard guard(*this, kSelectDepthCost);
    // Parenthesized select branch: ( SELECT ... )
    if (Peek().IsOp("(")) {
      Advance();
      SOFT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> inner, ParseSelect());
      SOFT_RETURN_IF_ERROR(ExpectOp(")"));
      SOFT_RETURN_IF_ERROR(MaybeParseUnion(*inner));
      return inner;
    }
    SOFT_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto sel = std::make_unique<SelectStmt>();
    if (ConsumeKeyword("DISTINCT")) {
      sel->distinct = true;
    } else {
      ConsumeKeyword("ALL");
    }

    // Projection list.
    for (;;) {
      SOFT_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr(0));
      std::string alias;
      if (ConsumeKeyword("AS")) {
        if (Peek().kind != TokenKind::kIdent) {
          return ParseError("expected alias after AS");
        }
        alias = Advance().text;
      } else if (Peek().kind == TokenKind::kIdent && !IsClauseKeyword(Peek())) {
        alias = Advance().text;
      }
      sel->items.emplace_back(std::move(item), std::move(alias));
      if (!ConsumeOp(",")) {
        break;
      }
    }

    if (ConsumeKeyword("FROM")) {
      if (Peek().IsOp("(")) {
        Advance();
        SOFT_ASSIGN_OR_RETURN(sel->from_subquery, ParseSelect());
        SOFT_RETURN_IF_ERROR(ExpectOp(")"));
        ConsumeKeyword("AS");
        if (Peek().kind == TokenKind::kIdent && !IsClauseKeyword(Peek())) {
          sel->from_alias = Advance().text;
        }
      } else {
        if (Peek().kind != TokenKind::kIdent) {
          return ParseError("expected table name after FROM");
        }
        sel->from_table = Advance().text;
        ConsumeKeyword("AS");
        if (Peek().kind == TokenKind::kIdent && !IsClauseKeyword(Peek())) {
          Advance();  // table alias accepted and ignored
        }
      }
    }

    if (ConsumeKeyword("WHERE")) {
      SOFT_ASSIGN_OR_RETURN(sel->where, ParseExpr(0));
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      SOFT_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        SOFT_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr(0));
        sel->group_by.push_back(std::move(g));
        if (!ConsumeOp(",")) {
          break;
        }
      }
    }
    if (ConsumeKeyword("HAVING")) {
      SOFT_ASSIGN_OR_RETURN(sel->having, ParseExpr(0));
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      SOFT_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        OrderItem item;
        SOFT_ASSIGN_OR_RETURN(item.expr, ParseExpr(0));
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        sel->order_by.push_back(std::move(item));
        if (!ConsumeOp(",")) {
          break;
        }
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kNumber) {
        return ParseError("expected number after LIMIT");
      }
      int64_t lim = 0;
      const std::string& text = Advance().text;
      std::from_chars(text.data(), text.data() + text.size(), lim);
      sel->limit = lim;
    }

    SOFT_RETURN_IF_ERROR(MaybeParseUnion(*sel));
    return sel;
  }

  Status MaybeParseUnion(SelectStmt& sel) {
    if (ConsumeKeyword("UNION")) {
      sel.union_all = ConsumeKeyword("ALL");
      SOFT_ASSIGN_OR_RETURN(sel.union_next, ParseSelect());
    }
    return OkStatus();
  }

  static bool IsClauseKeyword(const Token& t) {
    static constexpr std::string_view kClauses[] = {
        "FROM",  "WHERE", "GROUP", "HAVING", "ORDER",  "LIMIT",
        "UNION", "AS",    "ASC",   "DESC",   "VALUES", "ALL",
    };
    for (std::string_view kw : kClauses) {
      if (t.IsKeyword(kw)) {
        return true;
      }
    }
    return false;
  }

  // ---- CREATE TABLE / INSERT / DROP ---------------------------------------

  Result<Statement> ParseCreateTable() {
    Advance();  // CREATE
    SOFT_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    if (ConsumeKeyword("IF")) {
      SOFT_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      SOFT_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    }
    CreateTableStmt create;
    if (Peek().kind != TokenKind::kIdent) {
      return ParseError("expected table name");
    }
    create.table = Advance().text;
    SOFT_RETURN_IF_ERROR(ExpectOp("("));
    for (;;) {
      ColumnDef col;
      if (Peek().kind != TokenKind::kIdent) {
        return ParseError("expected column name");
      }
      col.name = Advance().text;
      SOFT_ASSIGN_OR_RETURN(col.type_text, ParseTypeText());
      const std::optional<TypeKind> kind = ParseTypeName(col.type_text);
      if (!kind.has_value()) {
        return ParseError("unknown column type '" + col.type_text + "'");
      }
      col.type = *kind;
      if (ConsumeKeyword("NOT")) {
        SOFT_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        col.not_null = true;
      } else if (ConsumeKeyword("NULL")) {
        // nullable, default
      }
      if (ConsumeKeyword("PRIMARY")) {
        SOFT_RETURN_IF_ERROR(ExpectKeyword("KEY"));
      }
      create.columns.push_back(std::move(col));
      if (!ConsumeOp(",")) {
        break;
      }
    }
    SOFT_RETURN_IF_ERROR(ExpectOp(")"));
    Statement stmt;
    stmt.node = std::move(create);
    return stmt;
  }

  // Reads a type name with optional (n[,m]) suffix, returning the raw text.
  Result<std::string> ParseTypeText() {
    if (Peek().kind != TokenKind::kIdent) {
      return ParseError("expected type name");
    }
    std::string text = Advance().text;
    // Two-word types: DOUBLE PRECISION.
    if (EqualsIgnoreCase(text, "DOUBLE") && Peek().IsKeyword("PRECISION")) {
      Advance();
    }
    if (Peek().IsOp("(")) {
      Advance();
      text.push_back('(');
      bool first = true;
      while (!Peek().IsOp(")")) {
        if (Peek().kind == TokenKind::kEnd) {
          return ParseError("unterminated type parameters");
        }
        if (!first) {
          text.push_back(',');
        }
        first = false;
        if (Peek().kind != TokenKind::kNumber) {
          return ParseError("expected numeric type parameter");
        }
        text += Advance().text;
        if (!ConsumeOp(",")) {
          break;
        }
      }
      SOFT_RETURN_IF_ERROR(ExpectOp(")"));
      text.push_back(')');
    }
    return text;
  }

  Result<Statement> ParseInsert() {
    Advance();  // INSERT
    SOFT_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt insert;
    if (Peek().kind != TokenKind::kIdent) {
      return ParseError("expected table name");
    }
    insert.table = Advance().text;
    if (Peek().IsOp("(")) {
      Advance();
      for (;;) {
        if (Peek().kind != TokenKind::kIdent) {
          return ParseError("expected column name in INSERT list");
        }
        insert.columns.push_back(Advance().text);
        if (!ConsumeOp(",")) {
          break;
        }
      }
      SOFT_RETURN_IF_ERROR(ExpectOp(")"));
    }
    SOFT_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    for (;;) {
      SOFT_RETURN_IF_ERROR(ExpectOp("("));
      std::vector<ExprPtr> row;
      for (;;) {
        SOFT_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr(0));
        row.push_back(std::move(v));
        if (!ConsumeOp(",")) {
          break;
        }
      }
      SOFT_RETURN_IF_ERROR(ExpectOp(")"));
      insert.rows.push_back(std::move(row));
      if (!ConsumeOp(",")) {
        break;
      }
    }
    Statement stmt;
    stmt.node = std::move(insert);
    return stmt;
  }

  Result<Statement> ParseDropTable() {
    Advance();  // DROP
    SOFT_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    DropTableStmt drop;
    if (ConsumeKeyword("IF")) {
      SOFT_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      drop.if_exists = true;
    }
    if (Peek().kind != TokenKind::kIdent) {
      return ParseError("expected table name");
    }
    drop.table = Advance().text;
    Statement stmt;
    stmt.node = std::move(drop);
    return stmt;
  }

  // ---- Expressions ---------------------------------------------------------
  //
  // Precedence (low → high): OR, AND, NOT, comparison/IS, additive(+ - ||),
  // multiplicative(* / %), unary(- +), postfix '::', primary.

  Result<ExprPtr> ParseExpr(int depth) {
    SOFT_FAILPOINT("parse.expr");
    if (depth_used_ + depth > kMaxParseDepth) {
      return ResourceExhausted("expression nesting too deep for parser");
    }
    return ParseOr(depth);
  }

  Result<ExprPtr> ParseOr(int depth) {
    SOFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd(depth + 1));
    while (Peek().IsKeyword("OR")) {
      Advance();
      SOFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd(depth + 1));
      lhs = MakeBinaryOp("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd(int depth) {
    SOFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot(depth + 1));
    while (Peek().IsKeyword("AND")) {
      Advance();
      SOFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot(depth + 1));
      lhs = MakeBinaryOp("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // A run of NOTs is consumed in a loop, not by recursion, so its length
  // costs no stack; each NOT still counts one unit of nesting depth.
  Result<ExprPtr> ParseNot(int depth) {
    int nots = 0;
    while (ConsumeKeyword("NOT")) {
      ++nots;
    }
    SOFT_ASSIGN_OR_RETURN(ExprPtr expr, ParseComparison(depth + nots));
    for (; nots > 0; --nots) {
      expr = MakeUnaryOp("NOT", std::move(expr));
    }
    return expr;
  }

  Result<ExprPtr> ParseComparison(int depth) {
    SOFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive(depth + 1));
    for (;;) {
      if (Peek().IsKeyword("IS")) {
        Advance();
        const bool negated = ConsumeKeyword("NOT");
        SOFT_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        lhs = MakeUnaryOp(negated ? "IS NOT NULL" : "IS NULL", std::move(lhs));
        continue;
      }
      std::string op;
      for (std::string_view candidate : {"<=", ">=", "<>", "!=", "=", "<", ">"}) {
        if (Peek().IsOp(candidate)) {
          op = candidate;
          break;
        }
      }
      if (Peek().IsKeyword("LIKE")) {
        op = "LIKE";
      }
      if (op.empty()) {
        return lhs;
      }
      Advance();
      SOFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive(depth + 1));
      lhs = MakeBinaryOp(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseAdditive(int depth) {
    SOFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative(depth + 1));
    while (Peek().IsOp("+") || Peek().IsOp("-") || Peek().IsOp("||")) {
      const std::string op = Advance().text;
      SOFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative(depth + 1));
      lhs = MakeBinaryOp(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative(int depth) {
    SOFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary(depth + 1));
    while (Peek().IsOp("*") || Peek().IsOp("/") || Peek().IsOp("%")) {
      const std::string op = Advance().text;
      SOFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary(depth + 1));
      lhs = MakeBinaryOp(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // Like NOT, a run of signs is consumed in a loop and applied innermost
  // first; each sign counts one unit of nesting depth.
  Result<ExprPtr> ParseUnary(int depth) {
    std::string signs;
    while (Peek().IsOp("-") || Peek().IsOp("+")) {
      signs += Advance().text;
    }
    SOFT_ASSIGN_OR_RETURN(ExprPtr expr,
                          ParsePostfix(depth + static_cast<int>(signs.size())));
    for (auto sign = signs.rbegin(); sign != signs.rend(); ++sign) {
      if (*sign == '-') {
        expr = Negate(std::move(expr));
      }
    }
    return expr;
  }

  // Folds negation into numeric literals so "-0.99999" is one literal.
  __attribute__((noinline)) static ExprPtr Negate(ExprPtr operand) {
    if (operand->kind == ExprKind::kLiteral && operand->literal.is_numeric()) {
      const Value& v = operand->literal;
      switch (v.kind()) {
        case TypeKind::kInt:
          return MakeLiteral(Value::Int(-v.int_value()));
        case TypeKind::kDouble:
          return MakeLiteral(Value::DoubleVal(-v.double_value()));
        case TypeKind::kDecimal:
          return MakeLiteral(Value::Dec(v.decimal_value().Negated()));
        default:
          break;
      }
    }
    return MakeUnaryOp("-", std::move(operand));
  }

  Result<ExprPtr> ParsePostfix(int depth) {
    SOFT_ASSIGN_OR_RETURN(ExprPtr base, ParsePrimary(depth + 1));
    while (ConsumeOp("::")) {
      SOFT_ASSIGN_OR_RETURN(base, ParseCastType(std::move(base)));
    }
    return base;
  }

  // Every nesting construct recurses through here, so this frame holds only
  // what a nesting level needs: the parenthesized branch and the list and
  // cast forms. Leaf tokens and the cast body are parsed out of line —
  // inlined, their locals made each nesting level cost about 20 KB of stack
  // under AddressSanitizer.
  Result<ExprPtr> ParsePrimary(int depth) {
    if (depth_used_ + depth > kMaxParseDepth) {
      return ResourceExhausted("expression nesting too deep for parser");
    }
    const Token& t = Peek();
    if (t.IsOp("(")) {
      Advance();
      if (Peek().IsKeyword("SELECT")) {
        SOFT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sub, ParseSelect());
        SOFT_RETURN_IF_ERROR(ExpectOp(")"));
        return MakeSubquery(std::move(sub));
      }
      SOFT_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr(depth + 1));
      SOFT_RETURN_IF_ERROR(ExpectOp(")"));
      return inner;
    }
    if (t.kind != TokenKind::kIdent || t.IsKeyword("NULL") || t.IsKeyword("TRUE") ||
        t.IsKeyword("FALSE")) {
      return ParseLeaf();
    }
    if (t.IsKeyword("CAST") && Peek(1).IsOp("(")) {
      return ParseCast(depth);
    }
    if (t.IsKeyword("ROW") && Peek(1).IsOp("(")) {
      Advance();
      Advance();
      SOFT_ASSIGN_OR_RETURN(std::vector<ExprPtr> fields, ParseExprList(depth, ")"));
      return MakeRowCtor(std::move(fields));
    }
    if (t.IsKeyword("ARRAY") && Peek(1).IsOp("[")) {
      Advance();
      Advance();
      SOFT_ASSIGN_OR_RETURN(std::vector<ExprPtr> elements, ParseExprList(depth, "]"));
      return MakeArrayCtor(std::move(elements));
    }
    if (Peek(1).IsOp("(")) {
      const std::string name = Advance().text;
      Advance();  // '('
      const bool distinct = ConsumeKeyword("DISTINCT");
      SOFT_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, ParseExprList(depth, ")"));
      return MakeFunctionCall(name, std::move(args), distinct);
    }
    return ParseLeaf();
  }

  // `expr, expr, ...` up to and including `close`; the list may be empty.
  __attribute__((noinline)) Result<std::vector<ExprPtr>> ParseExprList(int depth,
                                                                      std::string_view close) {
    std::vector<ExprPtr> items;
    if (!Peek().IsOp(close)) {
      do {
        SOFT_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr(depth + 1));
        items.push_back(std::move(item));
      } while (ConsumeOp(","));
    }
    SOFT_RETURN_IF_ERROR(ExpectOp(close));
    return items;
  }

  // CAST ( expr AS type )
  __attribute__((noinline)) Result<ExprPtr> ParseCast(int depth) {
    Advance();
    Advance();
    SOFT_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr(depth + 1));
    SOFT_RETURN_IF_ERROR(ExpectKeyword("AS"));
    SOFT_ASSIGN_OR_RETURN(ExprPtr cast, ParseCastType(std::move(operand)));
    SOFT_RETURN_IF_ERROR(ExpectOp(")"));
    return cast;
  }

  // The target type of CAST(x AS type) or x::type, applied to `operand`.
  __attribute__((noinline)) Result<ExprPtr> ParseCastType(ExprPtr operand) {
    SOFT_ASSIGN_OR_RETURN(std::string type_text, ParseTypeText());
    const std::optional<TypeKind> kind = ParseTypeName(type_text);
    if (!kind.has_value()) {
      return ParseError("unknown cast type '" + type_text + "'");
    }
    return MakeCast(std::move(operand), *kind, std::move(type_text));
  }

  // A primary that nests nothing: a literal, a DATE/TIMESTAMP literal, or a
  // (possibly qualified) column reference.
  __attribute__((noinline)) Result<ExprPtr> ParseLeaf() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      Advance();
      return NumberLiteral(t.text);
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return MakeLiteral(Value::Str(t.text));
    }
    if (t.kind == TokenKind::kBlobHex) {
      Advance();
      return MakeLiteral(Value::BlobVal(t.text));
    }
    if (t.IsOp("*")) {
      Advance();
      return MakeLiteral(Value::Star());
    }
    if (t.kind != TokenKind::kIdent) {
      return ParseError("unexpected token '" + t.text + "' in expression");
    }
    if (t.IsKeyword("NULL")) {
      Advance();
      return MakeLiteral(Value::Null());
    }
    if (t.IsKeyword("TRUE")) {
      Advance();
      return MakeLiteral(Value::Boolean(true));
    }
    if (t.IsKeyword("FALSE")) {
      Advance();
      return MakeLiteral(Value::Boolean(false));
    }
    if (t.IsKeyword("DATE") && Peek(1).kind == TokenKind::kString) {
      Advance();
      const std::string text = Advance().text;
      SOFT_ASSIGN_OR_RETURN(Date d, ParseDate(text));
      return MakeLiteral(Value::DateVal(d));
    }
    if ((t.IsKeyword("TIMESTAMP") || t.IsKeyword("DATETIME")) &&
        Peek(1).kind == TokenKind::kString) {
      Advance();
      const std::string text = Advance().text;
      SOFT_ASSIGN_OR_RETURN(DateTime dt, ParseDateTime(text));
      return MakeLiteral(Value::DateTimeVal(dt));
    }
    // Bare column reference (qualified names collapse to the last part).
    std::string name = Advance().text;
    while (Peek().IsOp(".") && Peek(1).kind == TokenKind::kIdent) {
      Advance();
      name = Advance().text;
    }
    return MakeColumnRef(std::move(name));
  }

  // Classifies numeric literal text: plain small integer → INT, exact decimal
  // (or oversized integer) → DECIMAL, exponent form → DOUBLE.
  static Result<ExprPtr> NumberLiteral(const std::string& text) {
    const bool has_dot = text.find('.') != std::string::npos;
    const bool has_exp =
        text.find('e') != std::string::npos || text.find('E') != std::string::npos;
    if (has_exp) {
      return MakeLiteral(Value::DoubleVal(std::strtod(text.c_str(), nullptr)));
    }
    if (!has_dot) {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec == std::errc() && p == text.data() + text.size()) {
        return MakeLiteral(Value::Int(v));
      }
      // Too large for int64 → exact DECIMAL (the AVG(1.2999…) bug class needs
      // the digits preserved).
    }
    SOFT_ASSIGN_OR_RETURN(Decimal d, Decimal::FromString(text));
    return MakeLiteral(Value::Dec(std::move(d)));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // Recursion budget consumed by in-flight ParseSelect frames (see
  // kSelectDepthCost); added to the expression `depth` at every limit check.
  int depth_used_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view sql) {
  SOFT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSingleStatement();
}

Result<std::vector<Statement>> ParseScript(std::string_view sql) {
  SOFT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

Result<ExprPtr> ParseExpression(std::string_view sql) {
  SOFT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSingleExpression();
}

}  // namespace soft
