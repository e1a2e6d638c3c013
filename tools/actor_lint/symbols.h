#ifndef ACTOR_TOOLS_ACTOR_LINT_SYMBOLS_H_
#define ACTOR_TOOLS_ACTOR_LINT_SYMBOLS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lexer.h"

namespace actor_lint {

inline constexpr std::size_t kNpos = std::string::npos;

// ---- text-scanning utilities shared by symbols/callgraph/rules ------------

bool IsSpace(char c);
bool StartsWith(const std::string& s, const char* prefix);
bool EndsWith(const std::string& s, const char* suffix);
std::size_t SkipWs(const std::string& s, std::size_t i);

/// True when s[pos..] starts with `word` as a whole identifier token.
bool TokenAt(const std::string& s, std::size_t pos, const char* word);

/// Next occurrence of `word` as a whole token at or after `from`.
std::size_t FindToken(const std::string& s, std::size_t from,
                      const char* word);

/// Index of the delimiter matching s[open_idx] (one of ( [ {), or npos.
std::size_t MatchForward(const std::string& s, std::size_t open_idx);

/// Index of the opener matching the closer at s[close_idx], or npos.
std::size_t MatchBackward(const std::string& s, std::size_t close_idx,
                          char open, char close);

/// Splits the argument list of a call whose '(' sits at `open` into
/// top-level (depth-0) argument spans. Returns false on unbalanced code.
bool SplitCallArgs(const std::string& code, std::size_t open,
                   std::vector<std::pair<std::size_t, std::size_t>>* args);

uint64_t Fnv1a(const std::string& s, uint64_t h);

/// Previous non-whitespace offset before `pos`, or npos.
std::size_t PrevNonWs(const std::string& s, std::size_t pos);

/// When the token at `b` is preceded by `X::`, the nearest qualifier
/// segment X (one level of template args skipped); "" when unqualified.
std::string QualifierBefore(const std::string& code, std::size_t b);

/// True when the token at `b` is a member access (`x.name` / `x->name`).
bool IsMemberAccess(const std::string& code, std::size_t b);

// ---- symbol index ---------------------------------------------------------

/// One call site inside a symbol body (or a HOGWILD region span). The
/// resolution in callgraph.cc is name-based and conservative; the fields
/// here let it reject the obvious mismatches (arity, member vs free,
/// explicit qualification).
struct CallSite {
  std::string name;
  std::string qualifier;  // nearest `X::` segment before the name, or ""
  bool member = false;    // receiver call: `x.name(` / `x->name(`
  int args = 0;           // top-level argument count at the call
  std::size_t offset = 0; // byte offset of the name token in `code`
};

/// One function/method definition (or a lambda stored in a variable),
/// parsed from the lexed `code` view. Spans are byte offsets into the
/// file's `code`/`content` (they are byte-aligned).
struct Symbol {
  std::string name;
  std::string qualifier;  // enclosing class / explicit `X::`, or ""
  int line = 0;           // 1-based line of the name token
  std::size_t name_offset = 0;
  std::size_t body_begin = 0;  // offset of the body '{'
  std::size_t body_end = 0;    // offset of the matching '}'
  bool method = false;
  bool lambda_var = false;  // `auto name = [...](...) {...};`
  int min_args = 0;         // params minus defaulted params
  int max_args = 0;         // -1: variadic / parameter pack
  std::vector<CallSite> calls;  // call sites inside [body_begin, body_end]
};

/// A function declaration without a body whose parameter list has
/// defaults — typically a header prototype. The call graph takes the
/// fewest required arguments over a function's declarations and its
/// definition, since defaults live only on the declaration.
struct Declaration {
  std::string name;
  std::string qualifier;  // enclosing class / explicit `X::`, or ""
  int min_args = 0;       // params minus defaulted params
  int max_args = 0;
  std::size_t offset = 0;  // byte offset of the name token in `code`
};

struct FileSymbols {
  std::vector<Symbol> symbols;
  std::vector<Declaration> declarations;  // outside every symbol body
};

/// Parses every function/method/lambda-variable definition out of the
/// lexed `code` view, including the call sites inside each body, plus the
/// defaulted declarations outside those bodies. Purely
/// lexical: no filesystem, no preprocessor, conservative on anything it
/// cannot parse (skips rather than guesses).
FileSymbols ExtractSymbols(const LexedFile& f);

/// Call sites inside an arbitrary span of `code` (used for HOGWILD region
/// spans, which are lambda bodies rather than named symbols).
std::vector<CallSite> ExtractCallsInSpan(const std::string& code,
                                         std::size_t begin, std::size_t end);

/// Serialization for the per-file symbol-index cache (one line per symbol
/// or call, appended to `out`). ParseSymbols consumes exactly the lines
/// SerializeSymbols wrote, advancing `pos`; returns false on malformed
/// input (caller treats the cache entry as a miss).
void SerializeSymbols(const FileSymbols& syms, std::string* out);
bool ParseSymbols(const std::string& in, std::size_t* pos, FileSymbols* out);

}  // namespace actor_lint

#endif  // ACTOR_TOOLS_ACTOR_LINT_SYMBOLS_H_
