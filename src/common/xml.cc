#include "common/xml.h"

#include <algorithm>
#include <cctype>

namespace bdbms {

namespace {

// Cursor-based parser over the input.
class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<std::unique_ptr<XmlElement>> ParseDocument() {
    SkipWhitespace();
    BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root, ParseElement());
    SkipWhitespace();
    if (pos_ != in_.size()) {
      return Status::InvalidArgument(
          "xml: trailing content after root element");
    }
    return root;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < in_.size() && IsNameChar(in_[pos_])) ++pos_;
    if (pos_ == start) return Status::InvalidArgument("xml: expected name");
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        ++i;
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Status::InvalidArgument("xml: unterminated entity");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") out.push_back('<');
      else if (ent == "gt") out.push_back('>');
      else if (ent == "amp") out.push_back('&');
      else if (ent == "quot") out.push_back('"');
      else if (ent == "apos") out.push_back('\'');
      else
        return Status::InvalidArgument("xml: unknown entity &" +
                                       std::string(ent) + ";");
      i = semi + 1;
    }
    return out;
  }

  Result<std::unique_ptr<XmlElement>> ParseElement() {
    if (AtEnd() || Peek() != '<') {
      return Status::InvalidArgument("xml: expected '<'");
    }
    ++pos_;
    auto elem = std::make_unique<XmlElement>();
    BDBMS_ASSIGN_OR_RETURN(elem->tag, ParseName());

    // Attributes.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Status::InvalidArgument("xml: unterminated tag");
      if (Peek() == '/' || Peek() == '>') break;
      BDBMS_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') {
        return Status::InvalidArgument(
            "xml: expected '=' after attribute name");
      }
      ++pos_;
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        return Status::InvalidArgument(
            "xml: expected '\"' for attribute value");
      }
      ++pos_;
      size_t start = pos_;
      while (pos_ < in_.size() && in_[pos_] != '"') ++pos_;
      if (AtEnd())
        return Status::InvalidArgument("xml: unterminated attribute value");
      BDBMS_ASSIGN_OR_RETURN(std::string attr_value,
                             DecodeEntities(in_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
      elem->attributes[attr_name] = std::move(attr_value);
    }

    if (Peek() == '/') {  // self-closing
      ++pos_;
      if (AtEnd() || Peek() != '>') {
        return Status::InvalidArgument("xml: malformed self-closing tag");
      }
      ++pos_;
      return elem;
    }
    ++pos_;  // '>'

    // Content: interleaved character data and child elements until </tag>.
    std::string text;
    for (;;) {
      if (AtEnd())
        return Status::InvalidArgument("xml: unterminated element <" +
                                       elem->tag + ">");
      if (Peek() == '<') {
        if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
          pos_ += 2;
          BDBMS_ASSIGN_OR_RETURN(std::string close_name, ParseName());
          if (close_name != elem->tag) {
            return Status::InvalidArgument("xml: mismatched closing tag </" +
                                           close_name + "> for <" + elem->tag +
                                           ">");
          }
          SkipWhitespace();
          if (AtEnd() || Peek() != '>') {
            return Status::InvalidArgument("xml: malformed closing tag");
          }
          ++pos_;
          break;
        }
        BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                               ParseElement());
        elem->children.push_back(std::move(child));
      } else {
        size_t start = pos_;
        while (pos_ < in_.size() && in_[pos_] != '<') ++pos_;
        BDBMS_ASSIGN_OR_RETURN(std::string chunk,
                               DecodeEntities(in_.substr(start, pos_ - start)));
        text += chunk;
      }
    }

    // Trim surrounding whitespace of accumulated text.
    size_t b = text.find_first_not_of(" \t\r\n");
    size_t e = text.find_last_not_of(" \t\r\n");
    elem->text = (b == std::string::npos) ? "" : text.substr(b, e - b + 1);
    return elem;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

const XmlElement* XmlElement::FindChild(std::string_view child_tag) const {
  for (const auto& c : children) {
    if (c->tag == child_tag) return c.get();
  }
  return nullptr;
}

Result<std::unique_ptr<XmlElement>> Xml::Parse(std::string_view input) {
  Parser p(input);
  return p.ParseDocument();
}

std::string Xml::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

Status XmlSchema::Validate(const XmlElement& root) const {
  if (root.tag != root_tag_) {
    return Status::InvalidArgument("xml schema: expected root <" + root_tag_ +
                                   ">, got <" + root.tag + ">");
  }
  for (const std::string& req : required_) {
    if (root.FindChild(req) == nullptr) {
      return Status::InvalidArgument("xml schema: missing required element <" +
                                     req + ">");
    }
  }
  if (!allow_unknown_) {
    for (const auto& c : root.children) {
      bool known = std::find(required_.begin(), required_.end(), c->tag) !=
                       required_.end() ||
                   std::find(optional_.begin(), optional_.end(), c->tag) !=
                       optional_.end();
      if (!known) {
        return Status::InvalidArgument("xml schema: unexpected element <" +
                                       c->tag + ">");
      }
    }
  }
  return Status::Ok();
}

Status XmlSchema::ValidateText(std::string_view xml_text) const {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                         Xml::Parse(xml_text));
  return Validate(*root);
}

}  // namespace bdbms
