// Built-in XML functions, with a self-contained micro-XML substrate.
//
// The paper's Listing 2 example is MySQL's UpdateXML; its bug table includes
// XML use-after-free and NPD entries. The substrate is a strict well-formed
// tag parser with nesting-depth accounting (deep <a><a><a>… documents are a
// Pattern 1.4 / 3.1 target) plus a '/a/b[1]'-style XPath subset.
#include <cctype>
#include <memory>
#include <vector>

#include "src/sqlfunc/function.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

struct XmlNode {
  std::string tag;
  std::string text;  // concatenated character data
  std::vector<std::unique_ptr<XmlNode>> children;

  std::string Serialize() const {
    std::string out = "<" + tag + ">";
    out += text;
    for (const auto& child : children) {
      out += child->Serialize();
    }
    out += "</" + tag + ">";
    return out;
  }
};

constexpr int kMaxXmlDepth = 512;

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<XmlNode>> Parse() {
    SkipSpace();
    SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseElement(1));
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgument("trailing content after XML root element");
    }
    return root;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  Result<std::unique_ptr<XmlNode>> ParseElement(int depth) {
    if (depth > kMaxXmlDepth) {
      return ResourceExhausted("XML nesting depth limit exceeded");
    }
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return InvalidArgument("expected '<' in XML");
    }
    ++pos_;
    auto node = std::make_unique<XmlNode>();
    while (pos_ < text_.size() && text_[pos_] != '>' && text_[pos_] != '/' &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) == 0) {
      node->tag.push_back(text_[pos_]);
      ++pos_;
    }
    if (node->tag.empty()) {
      return InvalidArgument("empty XML tag name");
    }
    SkipSpace();
    // Self-closing form <a/>.
    if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '>') {
      pos_ += 2;
      return node;
    }
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      return InvalidArgument("malformed XML start tag");
    }
    ++pos_;
    // Content: text and child elements until the matching close tag.
    for (;;) {
      if (pos_ >= text_.size()) {
        return InvalidArgument("unterminated XML element <" + node->tag + ">");
      }
      if (text_[pos_] == '<') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
          pos_ += 2;
          std::string close;
          while (pos_ < text_.size() && text_[pos_] != '>') {
            close.push_back(text_[pos_]);
            ++pos_;
          }
          if (pos_ >= text_.size()) {
            return InvalidArgument("unterminated XML close tag");
          }
          ++pos_;
          if (close != node->tag) {
            return InvalidArgument("mismatched XML close tag </" + close + ">");
          }
          return node;
        }
        SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child, ParseElement(depth + 1));
        node->children.push_back(std::move(child));
      } else {
        node->text.push_back(text_[pos_]);
        ++pos_;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Path subset: /tag/tag[index]/... (1-based indexes).
struct XPathStep {
  std::string tag;
  int index = 1;
};

Result<std::vector<XPathStep>> ParseXPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgument("XPath must start with '/'");
  }
  std::vector<XPathStep> steps;
  size_t pos = 1;
  while (pos < path.size()) {
    XPathStep step;
    while (pos < path.size() && path[pos] != '/' && path[pos] != '[') {
      step.tag.push_back(path[pos]);
      ++pos;
    }
    if (step.tag.empty()) {
      return InvalidArgument("empty step in XPath");
    }
    if (pos < path.size() && path[pos] == '[') {
      const size_t close = path.find(']', pos);
      if (close == std::string_view::npos) {
        return InvalidArgument("unterminated index in XPath");
      }
      step.index = 0;
      for (size_t i = pos + 1; i < close; ++i) {
        if (std::isdigit(static_cast<unsigned char>(path[i])) == 0) {
          return InvalidArgument("non-numeric index in XPath");
        }
        // A long digit run wraps (unsigned arithmetic) instead of overflowing.
        step.index = static_cast<int>(static_cast<unsigned>(step.index) * 10u +
                                      static_cast<unsigned>(path[i] - '0'));
      }
      pos = close + 1;
    }
    steps.push_back(std::move(step));
    if (pos < path.size()) {
      if (path[pos] != '/') {
        return InvalidArgument("malformed XPath");
      }
      ++pos;
    }
  }
  return steps;
}

// Returns the node at the path, or nullptr when it does not resolve. The
// first step must match the root tag.
XmlNode* ResolveXPath(XmlNode* root, const std::vector<XPathStep>& steps) {
  if (steps.empty() || root == nullptr || root->tag != steps[0].tag ||
      steps[0].index != 1) {
    return nullptr;
  }
  XmlNode* cur = root;
  for (size_t s = 1; s < steps.size(); ++s) {
    int seen = 0;
    XmlNode* next = nullptr;
    for (const auto& child : cur->children) {
      if (child->tag == steps[s].tag) {
        ++seen;
        if (seen == steps[s].index) {
          next = child.get();
          break;
        }
      }
    }
    if (next == nullptr) {
      return nullptr;
    }
    cur = next;
  }
  return cur;
}

Result<Value> FnExtractValue(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string xml, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string path, ctx.ArgString(args[1]));
  XmlParser parser(xml);
  const Result<std::unique_ptr<XmlNode>> doc = parser.Parse();
  if (!doc.ok()) {
    ctx.Cover(1);
    return doc.status().code() == StatusCode::kResourceExhausted ? doc.status()
                                                                 : Result<Value>(Value::Null());
  }
  SOFT_ASSIGN_OR_RETURN(std::vector<XPathStep> steps, ParseXPath(path));
  const XmlNode* target = ResolveXPath(doc->get(), steps);
  if (target == nullptr) {
    ctx.Cover(2);
    return Value::Str("");
  }
  return Value::Str(target->text);
}

Result<Value> FnUpdateXml(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string xml, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string path, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(std::string replacement, ctx.ArgString(args[2]));
  XmlParser parser(xml);
  Result<std::unique_ptr<XmlNode>> doc = parser.Parse();
  if (!doc.ok()) {
    ctx.Cover(1);
    return doc.status().code() == StatusCode::kResourceExhausted ? doc.status()
                                                                 : Result<Value>(Value::Null());
  }
  SOFT_ASSIGN_OR_RETURN(std::vector<XPathStep> steps, ParseXPath(path));
  XmlNode* target = ResolveXPath(doc->get(), steps);
  if (target == nullptr) {
    ctx.Cover(2);
    return Value::Str(xml);  // MySQL: path miss returns the original
  }
  // Parse the replacement fragment; it must itself be well-formed.
  XmlParser repl_parser(replacement);
  Result<std::unique_ptr<XmlNode>> fragment = repl_parser.Parse();
  if (!fragment.ok()) {
    ctx.Cover(3);
    return Value::Str(xml);
  }
  if (steps.size() == 1) {
    ctx.Cover(4);
    return Value::Str((*fragment)->Serialize());  // replaced the root
  }
  // Replace within the parent.
  std::vector<XPathStep> parent_steps(steps.begin(), steps.end() - 1);
  XmlNode* parent = ResolveXPath(doc->get(), parent_steps);
  for (auto& child : parent->children) {
    if (child.get() == target) {
      child = std::move(*fragment);
      break;
    }
  }
  return Value::Str((*doc)->Serialize());
}

Result<Value> FnXmlValid(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string xml, ctx.ArgString(args[0]));
  XmlParser parser(xml);
  const Result<std::unique_ptr<XmlNode>> doc = parser.Parse();
  if (!doc.ok() && doc.status().code() == StatusCode::kResourceExhausted) {
    ctx.Cover(1);
    return doc.status();
  }
  return Value::Boolean(doc.ok());
}

Result<Value> FnXmlRoot(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string xml, ctx.ArgString(args[0]));
  XmlParser parser(xml);
  SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> doc, parser.Parse());
  return Value::Str(doc->tag);
}

Result<Value> FnXmlElementCount(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string xml, ctx.ArgString(args[0]));
  XmlParser parser(xml);
  SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> doc, parser.Parse());
  int64_t count = 0;
  std::vector<const XmlNode*> stack = {doc.get()};
  while (!stack.empty()) {
    const XmlNode* node = stack.back();
    stack.pop_back();
    ++count;
    for (const auto& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return Value::Int(count);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kXml;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterXmlFunctions(FunctionRegistry& r) {
  Reg(r, "EXTRACTVALUE", 2, 2, FnExtractValue, "Text content at an XPath",
      "EXTRACTVALUE('<a><b>x</b></a>', '/a/b')");
  Reg(r, "UPDATEXML", 3, 3, FnUpdateXml, "Replace a subtree at an XPath",
      "UPDATEXML('<a><c></c></a>', '/a/c[1]', '<b></b>')");
  Reg(r, "XML_VALID", 1, 1, FnXmlValid, "Whether text is well-formed XML",
      "XML_VALID('<a></a>')");
  Reg(r, "XML_ROOT", 1, 1, FnXmlRoot, "Root tag name", "XML_ROOT('<a><b/></a>')");
  Reg(r, "XML_ELEMENT_COUNT", 1, 1, FnXmlElementCount, "Total element count",
      "XML_ELEMENT_COUNT('<a><b/><b/></a>')");
}

}  // namespace soft
