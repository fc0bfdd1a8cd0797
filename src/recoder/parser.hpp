// Mini-C lexer and recursive-descent parser.
//
// Grammar (the recoder's SLDL subset):
//   program   := (global_decl | function)*
//   function  := ("int" | "void") ident "(" params? ")" block
//   params    := param ("," param)*            param := "int" ["*"] ident ["[]"]
//   block     := "{" stmt* "}"
//   stmt      := decl | assign ";" | expr ";" | if | for | while
//              | return | block
//   decl      := "int" ["*"] ident ["[" int "]"] ["=" expr] ";"
//   assign    := lvalue "=" expr
//   lvalue    := ident | ident "[" expr "]" | "*" unary
//   if        := "if" "(" expr ")" block ["else" block]
//   for       := "for" "(" (decl | assign ";") expr ";" assign ")" block
//   while     := "while" "(" expr ")" block
//   return    := "return" [expr] ";"
//   expr      := precedence-climbing over || && == != < <= > >= + - * / %
//   unary     := ("-" | "!" | "*" | "&") unary | postfix
//   postfix   := primary ("[" expr "]")*
//   primary   := int | ident | ident "(" args ")" | "(" expr ")"
#pragma once

#include <string>
#include <string_view>

#include "common/result.hpp"
#include "recoder/ast.hpp"

namespace rw::recoder {

/// Parse a complete translation unit.
Result<Program> parse_program(std::string_view source);

}  // namespace rw::recoder
