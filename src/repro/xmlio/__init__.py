"""XML substrate: tokens, streaming lexer, DOM trees, serialization.

This subpackage implements the paper's data model (Section 2): XML documents
viewed both as streams of opening/closing tags and character data, and as
unranked ordered labeled trees, plus the document projection of Definition 1.
"""

from repro.xmlio.filelexer import FileTokenizer, tokenize_file
from repro.xmlio.lexer import XMLSyntaxError, XMLTokenizer, tokenize
from repro.xmlio.serialize import (
    IncrementalSerializer,
    StringSink,
    TokenSink,
    WriterSink,
    serialize_stream,
    serialize_tokens,
)
from repro.xmlio.tokens import (
    EndTag,
    LazyCData,
    LazyText,
    Span,
    StartTag,
    Text,
    Token,
    text_decode_count,
)
from repro.xmlio.tree import (
    DocumentNode,
    ElementNode,
    TextNode,
    XMLNode,
    build_tree,
    parse_tree,
    project,
    serialize_tree,
    tree_tokens,
)

__all__ = [
    "Token",
    "StartTag",
    "EndTag",
    "Text",
    "LazyText",
    "LazyCData",
    "Span",
    "text_decode_count",
    "XMLTokenizer",
    "XMLSyntaxError",
    "tokenize",
    "FileTokenizer",
    "tokenize_file",
    "serialize_tokens",
    "serialize_stream",
    "IncrementalSerializer",
    "TokenSink",
    "StringSink",
    "WriterSink",
    "XMLNode",
    "ElementNode",
    "TextNode",
    "DocumentNode",
    "parse_tree",
    "build_tree",
    "project",
    "serialize_tree",
    "tree_tokens",
]
