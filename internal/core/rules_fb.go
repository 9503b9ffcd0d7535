package core

import (
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Filter Bypass rules (paper §3.2.2 FB1/FB2). Neither has security impact
// on its own; both defeat filters that block whitespace, which makes them
// standard components of real-world XSS payloads.

// ruleFB1 detects a solidus used as an attribute separator:
// <img/src="x"/onerror="alert(1)">. The tokenizer raises
// unexpected-solidus-in-tag and treats the slash as whitespace.
var ruleFB1 = Rule{
	ID: "FB1", Name: "Slashes between attributes",
	Doc:   "A solidus between attributes is treated as whitespace, so filters that block spaces are bypassed with <img/src=x/onerror=...> (paper §3.2.2).",
	Group: FilterBypass, Category: ParsingError,
	AutoFixable: true,
	Stream:      errorStream("FB1", htmlparse.ErrUnexpectedSolidusInTag),
}

// ruleFB2 detects attributes concatenated without whitespace:
// <img src="u"onerror="alert(1)">. The tokenizer raises
// missing-whitespace-between-attributes and inserts the separator itself.
var ruleFB2 = Rule{
	ID: "FB2", Name: "Missing space between attributes",
	Doc:   "Attributes glued together without whitespace are silently separated, the other standard space-filter bypass (paper §3.2.2).",
	Group: FilterBypass, Category: ParsingError,
	AutoFixable: true,
	Stream:      errorStream("FB2", htmlparse.ErrMissingWhitespaceBetweenAttributes),
}
