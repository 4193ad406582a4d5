#ifndef BDBMS_COMMON_XML_H_
#define BDBMS_COMMON_XML_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace bdbms {

// Minimal XML element tree. Annotation bodies in bdbms are XML-formatted
// (paper Section 3.2) and provenance bodies must additionally conform to a
// schema (Section 4); this module supplies parse, serialize and validate.
//
// Supported subset: nested elements, attributes with double-quoted values,
// character data, self-closing tags, &lt; &gt; &amp; &quot; &apos; entities.
// Not supported (rejected): processing instructions, CDATA, comments,
// doctypes, namespaces.
struct XmlElement {
  std::string tag;
  std::map<std::string, std::string> attributes;
  std::string text;  // concatenated character data directly under this node
  std::vector<std::unique_ptr<XmlElement>> children;

  // First child with the given tag, or nullptr.
  const XmlElement* FindChild(std::string_view child_tag) const;
};

class Xml {
 public:
  // Parses `input` into a single-rooted element tree.
  static Result<std::unique_ptr<XmlElement>> Parse(std::string_view input);

  // Escapes the five predefined entities in `raw`.
  static std::string Escape(std::string_view raw);
};

// A flat XML schema: the root tag plus its direct children, each either
// required or optional, with unknown children optionally rejected. This is
// sufficient for the structured provenance records of Section 4
// ("provenance data can follow a predefined XML schema ... enforced by the
// database system").
class XmlSchema {
 public:
  XmlSchema(std::string root_tag, std::vector<std::string> required_children,
            std::vector<std::string> optional_children,
            bool allow_unknown_children = false)
      : root_tag_(std::move(root_tag)),
        required_(std::move(required_children)),
        optional_(std::move(optional_children)),
        allow_unknown_(allow_unknown_children) {}

  const std::string& root_tag() const { return root_tag_; }

  // OK iff `root` matches: correct root tag, all required children present,
  // and (unless allow_unknown) no children outside required+optional.
  Status Validate(const XmlElement& root) const;

  // Parses then validates.
  Status ValidateText(std::string_view xml_text) const;

 private:
  std::string root_tag_;
  std::vector<std::string> required_;
  std::vector<std::string> optional_;
  bool allow_unknown_;
};

}  // namespace bdbms

#endif  // BDBMS_COMMON_XML_H_
