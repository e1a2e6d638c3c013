#include "symbols.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>
#include <unordered_set>

namespace actor_lint {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t len = std::char_traits<char>::length(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

std::size_t SkipWs(const std::string& s, std::size_t i) {
  while (i < s.size() && IsSpace(s[i])) ++i;
  return i;
}

bool TokenAt(const std::string& s, std::size_t pos, const char* word) {
  const std::size_t len = std::char_traits<char>::length(word);
  if (pos + len > s.size() || s.compare(pos, len, word) != 0) return false;
  if (pos > 0 && IsIdentChar(s[pos - 1])) return false;
  return pos + len >= s.size() || !IsIdentChar(s[pos + len]);
}

std::size_t FindToken(const std::string& s, std::size_t from,
                      const char* word) {
  std::size_t pos = from;
  while ((pos = s.find(word, pos)) != kNpos) {
    if (TokenAt(s, pos, word)) return pos;
    ++pos;
  }
  return kNpos;
}

std::size_t MatchForward(const std::string& s, std::size_t open_idx) {
  const char open = s[open_idx];
  const char close = open == '(' ? ')' : open == '[' ? ']' : '}';
  int depth = 0;
  for (std::size_t i = open_idx; i < s.size(); ++i) {
    if (s[i] == open) ++depth;
    if (s[i] == close && --depth == 0) return i;
  }
  return kNpos;
}

std::size_t MatchBackward(const std::string& s, std::size_t close_idx,
                          char open, char close) {
  int depth = 0;
  for (std::size_t i = close_idx + 1; i-- > 0;) {
    if (s[i] == close) ++depth;
    if (s[i] == open && --depth == 0) return i;
  }
  return kNpos;
}

bool SplitCallArgs(const std::string& code, std::size_t open,
                   std::vector<std::pair<std::size_t, std::size_t>>* args) {
  const std::size_t close = MatchForward(code, open);
  if (close == kNpos) return false;
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      args->emplace_back(begin, i);
      begin = i + 1;
    }
  }
  if (close > begin || args->empty()) args->emplace_back(begin, close);
  return true;
}

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// Identifiers that can precede a '(' without being a call or a function
/// name. Keeps the extractor from treating control flow, casts, and
/// keyword operators as symbols/call sites.
bool IsKeyword(const std::string& s) {
  static const std::unordered_set<std::string> kSet = {
      "if",        "for",        "while",      "switch",     "catch",
      "return",    "sizeof",     "alignof",    "alignas",    "decltype",
      "new",       "delete",     "throw",      "else",       "do",
      "case",      "default",    "static_assert", "requires", "noexcept",
      "operator",  "defined",    "and",        "or",         "not",
      "xor",       "goto",       "using",      "typedef",    "template",
      "typename",  "class",      "struct",     "enum",       "union",
      "public",    "private",    "protected",  "namespace",  "this",
      "const_cast", "static_cast", "dynamic_cast", "reinterpret_cast",
      "constexpr", "consteval",  "constinit",  "explicit",   "inline",
      "friend",    "virtual",    "export",     "concept",    "int",
      "char",      "bool",       "float",      "double",     "void",
      "auto",      "long",       "short",      "signed",     "unsigned",
      "const",     "volatile",   "static",     "extern",     "mutable",
      "co_await",  "co_yield",   "co_return",  "assert",
  };
  return kSet.count(s) > 0;
}

}  // namespace

std::size_t PrevNonWs(const std::string& s, std::size_t pos) {
  while (pos-- > 0) {
    if (!IsSpace(s[pos])) return pos;
  }
  return kNpos;
}

/// When the token at [b, e) is preceded by `X::`, returns the nearest
/// qualifier segment X (skipping one level of template args, so
/// `Foo<T>::bar` yields Foo). Empty string when unqualified or `::name`
/// (global) or the qualifier is unparsable.
std::string QualifierBefore(const std::string& code, std::size_t b) {
  std::size_t j = PrevNonWs(code, b);
  if (j == kNpos || j < 1 || code[j] != ':' || code[j - 1] != ':') return "";
  j = PrevNonWs(code, j - 1);
  if (j == kNpos) return "";
  if (code[j] == '>') {
    const std::size_t open = MatchBackward(code, j, '<', '>');
    if (open == kNpos) return "";
    j = PrevNonWs(code, open);
    if (j == kNpos) return "";
  }
  if (!IsIdentChar(code[j])) return "";
  std::size_t qb = j + 1;
  while (qb > 0 && IsIdentChar(code[qb - 1])) --qb;
  return code.substr(qb, j + 1 - qb);
}

/// True when the token at [b, e) is a member call (`x.name` / `x->name`).
bool IsMemberAccess(const std::string& code, std::size_t b) {
  const std::size_t j = PrevNonWs(code, b);
  if (j == kNpos) return false;
  if (code[j] == '.') {
    // Exclude `...name` (pack expansion) — treat as non-member.
    return !(j >= 2 && code[j - 1] == '.' && code[j - 2] == '.');
  }
  return j >= 1 && code[j] == '>' && code[j - 1] == '-';
}

namespace {

/// Counts top-level arguments/parameters of the list in (open, close).
/// Tracks (), [], {} and a heuristic <> depth so `map<int, float>` does
/// not split. Sets *variadic when a top-level `...` appears, *defaults to
/// the number of top-level `=` (defaulted parameters).
int CountListItems(const std::string& code, std::size_t open,
                   std::size_t close, bool* variadic, int* defaults) {
  if (variadic != nullptr) *variadic = false;
  if (defaults != nullptr) *defaults = 0;
  std::size_t first = SkipWs(code, open + 1);
  if (first >= close) return 0;
  if (TokenAt(code, first, "void") && SkipWs(code, first + 4) >= close) {
    return 0;
  }
  int depth = 0;
  int angle = 0;
  int items = 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = code[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (depth == 0) {
      if (c == '<' && (i == 0 || code[i - 1] != '<')) ++angle;
      if (c == '>' && angle > 0 && (i == 0 || code[i - 1] != '-')) --angle;
      if (angle == 0) {
        if (c == ',') ++items;
        if (c == '=' && (i + 1 >= close || code[i + 1] != '=') &&
            (i == 0 || (code[i - 1] != '=' && code[i - 1] != '!' &&
                        code[i - 1] != '<' && code[i - 1] != '>'))) {
          if (defaults != nullptr) ++(*defaults);
        }
        if (c == '.' && i + 2 < close && code[i + 1] == '.' &&
            code[i + 2] == '.') {
          if (variadic != nullptr) *variadic = true;
        }
      }
    }
  }
  return items;
}

/// Starting just after the ')' of a parameter list, true when only
/// qualifiers (const, &, noexcept(...), override, final, `= 0`,
/// `= default`, `= delete`) stand before the next `;`: the list ended a
/// function *declaration*, not a call expression or a definition.
bool EndsDeclaration(const std::string& code, std::size_t after) {
  for (std::size_t t = after; t < code.size(); ++t) {
    const char c = code[t];
    if (c == ';') return true;
    if (!IsIdentChar(c) && !IsSpace(c) && c != '&' && c != '=' && c != '(' &&
        c != ')') {
      return false;
    }
  }
  return false;
}

/// Starting just after the ')' of a parameter list, decides whether this
/// is a function *definition* and finds its body '{'. Accepts const /
/// noexcept(...) / override / final / ref-qualifiers / trailing return
/// types / constructor initializer lists; anything else (`;`, `=`, `,`,
/// an operator) rejects — that is a declaration or a call expression.
std::size_t FindDefinitionBody(const std::string& code, std::size_t after) {
  std::size_t t = SkipWs(code, after);
  for (int guard = 0; guard < 64 && t < code.size(); ++guard) {
    const char c = code[t];
    if (c == '{') return t;
    if (c == '&') {  // ref-qualifier (& or &&)
      t = SkipWs(code, t + (t + 1 < code.size() && code[t + 1] == '&' ? 2 : 1));
      continue;
    }
    if (TokenAt(code, t, "const") || TokenAt(code, t, "override") ||
        TokenAt(code, t, "final") || TokenAt(code, t, "mutable") ||
        TokenAt(code, t, "volatile")) {
      while (t < code.size() && IsIdentChar(code[t])) ++t;
      t = SkipWs(code, t);
      continue;
    }
    if (TokenAt(code, t, "noexcept")) {
      t = SkipWs(code, t + 8);
      if (t < code.size() && code[t] == '(') {
        const std::size_t close = MatchForward(code, t);
        if (close == kNpos) return kNpos;
        t = SkipWs(code, close + 1);
      }
      continue;
    }
    if (c == '-' && t + 1 < code.size() && code[t + 1] == '>') {
      // Trailing return type: consume until the body '{' at depth 0.
      int depth = 0;
      int angle = 0;
      for (std::size_t i = t + 2; i < code.size(); ++i) {
        const char ch = code[i];
        if (ch == '(' || ch == '[') ++depth;
        if (ch == ')' || ch == ']') --depth;
        if (ch == '<') ++angle;
        if (ch == '>' && angle > 0 && code[i - 1] != '-') --angle;
        if (depth == 0 && ch == '{') return i;
        if (depth <= 0 && (ch == ';' || ch == '}' ||
                           (ch == ',' && angle == 0))) {
          return kNpos;
        }
      }
      return kNpos;
    }
    if (c == ':' && (t + 1 >= code.size() || code[t + 1] != ':')) {
      // Constructor initializer list: entries `name(...)` / `name{...}`
      // separated by commas, then the body '{'.
      t = SkipWs(code, t + 1);
      for (int entries = 0; entries < 64; ++entries) {
        while (t < code.size() &&
               (IsIdentChar(code[t]) || code[t] == ':' || code[t] == '<' ||
                code[t] == '>')) {
          ++t;
        }
        t = SkipWs(code, t);
        if (t >= code.size() || (code[t] != '(' && code[t] != '{')) {
          return kNpos;
        }
        const std::size_t close = MatchForward(code, t);
        if (close == kNpos) return kNpos;
        t = SkipWs(code, close + 1);
        if (t < code.size() && code[t] == ',') {
          t = SkipWs(code, t + 1);
          continue;
        }
        break;
      }
      t = SkipWs(code, t);
      if (t < code.size() && code[t] == '{') return t;
      return kNpos;
    }
    return kNpos;
  }
  return kNpos;
}

struct ClassSpan {
  std::string name;
  std::size_t begin = 0;  // the class body '{'
  std::size_t end = 0;
};

std::vector<ClassSpan> CollectClassSpans(const std::string& code) {
  std::vector<ClassSpan> spans;
  for (const char* kw : {"class", "struct"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, kw)) != kNpos) {
      const std::size_t at = pos;
      pos += std::strlen(kw);
      // `enum class` is not a class scope; `template <class T>` is a
      // template parameter, not a definition.
      const std::size_t prev = PrevNonWs(code, at);
      if (prev != kNpos) {
        if (code[prev] == '<' || code[prev] == ',') continue;
        if (IsIdentChar(code[prev])) {
          std::size_t pb = prev + 1;
          while (pb > 0 && IsIdentChar(code[pb - 1])) --pb;
          if (code.compare(pb, prev + 1 - pb, "enum") == 0) continue;
        }
      }
      std::size_t j = SkipWs(code, at + std::strlen(kw));
      std::size_t nb = j;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      if (j == nb) continue;  // anonymous
      const std::string name = code.substr(nb, j - nb);
      // Forward decl (`;`), variable (`=`), or template parameter (`>`)
      // before the body brace means no scope to record.
      std::size_t k = j;
      int angle = 0;
      bool ok = false;
      while (k < code.size()) {
        const char c = code[k];
        if (c == '<') ++angle;
        if (c == '>' && angle > 0) --angle;
        if (angle == 0) {
          if (c == '{') {
            ok = true;
            break;
          }
          if (c == ';' || c == '=' || c == ')' || c == '>') break;
        }
        ++k;
      }
      if (!ok) continue;
      const std::size_t close = MatchForward(code, k);
      if (close == kNpos) continue;
      spans.push_back({name, k, close});
    }
  }
  return spans;
}

/// Innermost class span containing `pos`, or nullptr.
const ClassSpan* EnclosingClass(const std::vector<ClassSpan>& spans,
                                std::size_t pos) {
  const ClassSpan* best = nullptr;
  for (const ClassSpan& s : spans) {
    if (s.begin < pos && pos < s.end) {
      if (best == nullptr || s.end - s.begin < best->end - best->begin) {
        best = &s;
      }
    }
  }
  return best;
}

}  // namespace

std::vector<CallSite> ExtractCallsInSpan(const std::string& code,
                                         std::size_t begin, std::size_t end) {
  std::vector<CallSite> calls;
  std::size_t i = begin;
  while (i < end) {
    if (!IsIdentChar(code[i])) {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < end && IsIdentChar(code[i])) ++i;
    if (std::isdigit(static_cast<unsigned char>(code[b]))) continue;
    const std::string name = code.substr(b, i - b);
    if (IsKeyword(name)) continue;
    const std::size_t open = SkipWs(code, i);
    if (open >= end || code[open] != '(') continue;
    const std::size_t close = MatchForward(code, open);
    if (close == kNpos || close > end) continue;
    CallSite c;
    c.name = name;
    c.qualifier = QualifierBefore(code, b);
    c.member = IsMemberAccess(code, b);
    c.args = CountListItems(code, open, close, nullptr, nullptr);
    c.offset = b;
    calls.push_back(std::move(c));
  }
  return calls;
}

FileSymbols ExtractSymbols(const LexedFile& f) {
  FileSymbols out;
  const std::string& code = f.code;
  const std::vector<ClassSpan> classes = CollectClassSpans(code);

  // The explicit `X::` before the name at `at`, or its enclosing class;
  // true when that makes the function a method.
  auto qualify = [&](std::size_t at, std::string* qualifier) {
    *qualifier = QualifierBefore(code, at);
    if (!qualifier->empty()) return true;
    const ClassSpan* cls = EnclosingClass(classes, at);
    if (cls == nullptr) return false;
    *qualifier = cls->name;
    return true;
  };

  // Named function / method definitions: `name(params) <trailer> {`.
  std::size_t i = 0;
  while (i < code.size()) {
    if (!IsIdentChar(code[i])) {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < code.size() && IsIdentChar(code[i])) ++i;
    if (std::isdigit(static_cast<unsigned char>(code[b]))) continue;
    const std::string name = code.substr(b, i - b);
    if (IsKeyword(name)) continue;
    const std::size_t prev = PrevNonWs(code, b);
    if (prev != kNpos && code[prev] == '~') continue;  // destructor
    const std::size_t open = SkipWs(code, i);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = MatchForward(code, open);
    if (close == kNpos) continue;
    bool variadic = false;
    int defaults = 0;
    const std::size_t body = FindDefinitionBody(code, close + 1);
    if (body == kNpos) {
      // `Type name(T a, U b = x);` — a prototype whose default the
      // definition does not repeat. Bodies are filtered out below.
      const std::size_t type_end = PrevNonWs(code, b);
      if (type_end == kNpos ||
          !(IsIdentChar(code[type_end]) || code[type_end] == '>' ||
            code[type_end] == '*' || code[type_end] == '&') ||
          !EndsDeclaration(code, close + 1)) {
        continue;
      }
      const int params =
          CountListItems(code, open, close, &variadic, &defaults);
      if (defaults == 0 || variadic) continue;
      Declaration decl{name, "", params - defaults, params, b};
      qualify(b, &decl.qualifier);
      out.declarations.push_back(std::move(decl));
      continue;
    }
    const std::size_t body_end = MatchForward(code, body);
    if (body_end == kNpos) continue;

    Symbol sym;
    sym.name = name;
    sym.name_offset = b;
    sym.line = f.LineAt(b);
    sym.body_begin = body;
    sym.body_end = body_end;
    sym.method = qualify(b, &sym.qualifier);
    const int params = CountListItems(code, open, close, &variadic, &defaults);
    sym.min_args = std::max(0, params - defaults);
    sym.max_args = variadic ? -1 : params;
    sym.calls = ExtractCallsInSpan(code, body + 1, body_end);
    out.symbols.push_back(std::move(sym));
  }

  // Lambdas stored in variables: `auto name = [caps](params) ... {body}`.
  std::size_t pos = 0;
  while ((pos = code.find('[', pos)) != kNpos) {
    const std::size_t intro = pos++;
    const std::size_t eq = PrevNonWs(code, intro);
    if (eq == kNpos || code[eq] != '=' ||
        (eq > 0 && (code[eq - 1] == '=' || code[eq - 1] == '!' ||
                    code[eq - 1] == '<' || code[eq - 1] == '>'))) {
      continue;
    }
    const std::size_t name_end = PrevNonWs(code, eq);
    if (name_end == kNpos || !IsIdentChar(code[name_end])) continue;
    std::size_t nb = name_end + 1;
    while (nb > 0 && IsIdentChar(code[nb - 1])) --nb;
    const std::string name = code.substr(nb, name_end + 1 - nb);
    if (IsKeyword(name)) continue;
    const std::size_t intro_end = MatchForward(code, intro);
    if (intro_end == kNpos) continue;
    std::size_t t = SkipWs(code, intro_end + 1);
    int params = 0;
    bool variadic = false;
    int defaults = 0;
    if (t < code.size() && code[t] == '(') {
      const std::size_t pclose = MatchForward(code, t);
      if (pclose == kNpos) continue;
      params = CountListItems(code, t, pclose, &variadic, &defaults);
      t = SkipWs(code, pclose + 1);
    }
    const std::size_t body = code[t] == '{' ? t : FindDefinitionBody(code, t);
    if (body == kNpos || body >= code.size() || code[body] != '{') continue;
    const std::size_t body_end = MatchForward(code, body);
    if (body_end == kNpos) continue;

    Symbol sym;
    sym.name = name;
    sym.name_offset = nb;
    sym.line = f.LineAt(nb);
    sym.body_begin = body;
    sym.body_end = body_end;
    sym.lambda_var = true;
    sym.min_args = std::max(0, params - defaults);
    sym.max_args = variadic ? -1 : params;
    sym.calls = ExtractCallsInSpan(code, body + 1, body_end);
    out.symbols.push_back(std::move(sym));
  }

  std::sort(out.symbols.begin(), out.symbols.end(),
            [](const Symbol& a, const Symbol& b) {
              return a.name_offset < b.name_offset;
            });
  // A `name(a = 1);` inside a body is a call, not a declaration.
  std::erase_if(out.declarations, [&](const Declaration& d) {
    return std::any_of(out.symbols.begin(), out.symbols.end(),
                       [&](const Symbol& s) {
                         return s.body_begin < d.offset &&
                                d.offset < s.body_end;
                       });
  });
  return out;
}

// ---- cache serialization --------------------------------------------------

void SerializeSymbols(const FileSymbols& syms, std::string* out) {
  for (const Symbol& s : syms.symbols) {
    *out += "S " + s.name + " " + (s.qualifier.empty() ? "-" : s.qualifier) +
            " " + std::to_string(s.line) + " " +
            std::to_string(s.name_offset) + " " +
            std::to_string(s.body_begin) + " " + std::to_string(s.body_end) +
            " " + (s.method ? "1" : "0") + (s.lambda_var ? "1" : "0") + " " +
            std::to_string(s.min_args) + " " + std::to_string(s.max_args) +
            " " + std::to_string(s.calls.size()) + "\n";
    for (const CallSite& c : s.calls) {
      *out += "C " + c.name + " " +
              (c.qualifier.empty() ? "-" : c.qualifier) + " " +
              (c.member ? "1" : "0") + " " + std::to_string(c.args) + " " +
              std::to_string(c.offset) + "\n";
    }
  }
  for (const Declaration& d : syms.declarations) {
    *out += "D " + d.name + " " + (d.qualifier.empty() ? "-" : d.qualifier) +
            " " + std::to_string(d.min_args) + " " +
            std::to_string(d.max_args) + " " + std::to_string(d.offset) +
            "\n";
  }
  *out += "E\n";
}

namespace {

bool NextLine(const std::string& in, std::size_t* pos, std::string* line) {
  if (*pos >= in.size()) return false;
  const std::size_t nl = in.find('\n', *pos);
  const std::size_t end = nl == kNpos ? in.size() : nl;
  line->assign(in, *pos, end - *pos);
  *pos = nl == kNpos ? in.size() : nl + 1;
  return true;
}

}  // namespace

bool ParseSymbols(const std::string& in, std::size_t* pos, FileSymbols* out) {
  std::string line;
  while (NextLine(in, pos, &line)) {
    if (line == "E") return true;
    if (!line.empty() && line[0] == 'D') {
      std::istringstream ds(line);
      std::string tag;
      Declaration d;
      if (!(ds >> tag >> d.name >> d.qualifier >> d.min_args >> d.max_args >>
            d.offset)) {
        return false;
      }
      if (d.qualifier == "-") d.qualifier.clear();
      out->declarations.push_back(std::move(d));
      continue;
    }
    if (line.empty() || line[0] != 'S') return false;
    std::istringstream ls(line);
    std::string tag, flags;
    Symbol s;
    std::size_t ncalls = 0;
    if (!(ls >> tag >> s.name >> s.qualifier >> s.line >> s.name_offset >>
          s.body_begin >> s.body_end >> flags >> s.min_args >> s.max_args >>
          ncalls) ||
        flags.size() != 2) {
      return false;
    }
    if (s.qualifier == "-") s.qualifier.clear();
    s.method = flags[0] == '1';
    s.lambda_var = flags[1] == '1';
    for (std::size_t k = 0; k < ncalls; ++k) {
      if (!NextLine(in, pos, &line) || line.empty() || line[0] != 'C') {
        return false;
      }
      std::istringstream cs(line);
      CallSite c;
      int member = 0;
      if (!(cs >> tag >> c.name >> c.qualifier >> member >> c.args >>
            c.offset)) {
        return false;
      }
      if (c.qualifier == "-") c.qualifier.clear();
      c.member = member != 0;
      s.calls.push_back(std::move(c));
    }
    out->symbols.push_back(std::move(s));
  }
  return false;  // missing terminator
}

}  // namespace actor_lint
