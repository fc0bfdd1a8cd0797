// Minimal XML parser for CIC architecture-information files (Sec. V).
//
// The HOPES flow separates the platform description from the algorithm in
// an "xml-style file, called the architecture information file". This is a
// small, strict subset-of-XML parser: elements, attributes, text content,
// comments, and XML declarations. No namespaces, entities beyond the five
// predefined ones, CDATA, or DTDs — architecture files don't need them.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace rw::xml {

/// An XML element node. Text content is accumulated across children into
/// `text` (mixed content order is not preserved; architecture files never
/// interleave text and elements).
struct Element {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<Element>> children;
  std::string text;
  int line = 0;

  /// First attribute value with the given name, or empty view.
  [[nodiscard]] std::string_view attr(std::string_view name) const;

  /// Attribute value parsed as u64; `fallback` when absent/bad.
  [[nodiscard]] std::uint64_t attr_u64(std::string_view name,
                                       std::uint64_t fallback = 0) const;

  /// First child element with the given tag name, or nullptr.
  [[nodiscard]] const Element* child(std::string_view name) const;

  /// All children with the given tag name.
  [[nodiscard]] std::vector<const Element*> children_named(
      std::string_view name) const;
};

/// Parse a complete document; returns its root element.
Result<std::unique_ptr<Element>> parse(std::string_view input);

/// Serialize back to text that parse() reads back: two-space indent per
/// level, attribute values and text escaped.
std::string serialize(const Element& root);

}  // namespace rw::xml
