package htmlparse

import "fmt"

// ErrorCode names a parse error exactly as the WHATWG HTML Living Standard
// does (section 13.2.2, "Parse errors"). The violation rules in
// internal/core match on these names, mirroring the paper's definition of
// the "Parsing Errors" violation category.
type ErrorCode string

// Tokenizer-stage parse errors.
const (
	ErrAbruptClosingOfEmptyComment        ErrorCode = "abrupt-closing-of-empty-comment"
	ErrAbruptDoctypePublicIdentifier      ErrorCode = "abrupt-doctype-public-identifier"
	ErrAbruptDoctypeSystemIdentifier      ErrorCode = "abrupt-doctype-system-identifier"
	ErrAbsenceOfDigitsInNumericCharRef    ErrorCode = "absence-of-digits-in-numeric-character-reference"
	ErrCDATAInHTMLContent                 ErrorCode = "cdata-in-html-content"
	ErrCharRefOutsideUnicodeRange         ErrorCode = "character-reference-outside-unicode-range"
	ErrControlCharacterInInputStream      ErrorCode = "control-character-in-input-stream"
	ErrControlCharacterReference          ErrorCode = "control-character-reference"
	ErrDuplicateAttribute                 ErrorCode = "duplicate-attribute"
	ErrEndTagWithAttributes               ErrorCode = "end-tag-with-attributes"
	ErrEndTagWithTrailingSolidus          ErrorCode = "end-tag-with-trailing-solidus"
	ErrEOFBeforeTagName                   ErrorCode = "eof-before-tag-name"
	ErrEOFInCDATA                         ErrorCode = "eof-in-cdata"
	ErrEOFInComment                       ErrorCode = "eof-in-comment"
	ErrEOFInDoctype                       ErrorCode = "eof-in-doctype"
	ErrEOFInScriptHTMLCommentLikeText     ErrorCode = "eof-in-script-html-comment-like-text"
	ErrEOFInTag                           ErrorCode = "eof-in-tag"
	ErrIncorrectlyClosedComment           ErrorCode = "incorrectly-closed-comment"
	ErrIncorrectlyOpenedComment           ErrorCode = "incorrectly-opened-comment"
	ErrInvalidCharacterSequenceAfterDT    ErrorCode = "invalid-character-sequence-after-doctype-name"
	ErrInvalidFirstCharacterOfTagName     ErrorCode = "invalid-first-character-of-tag-name"
	ErrMissingAttributeValue              ErrorCode = "missing-attribute-value"
	ErrMissingDoctypeName                 ErrorCode = "missing-doctype-name"
	ErrMissingDoctypePublicIdentifier     ErrorCode = "missing-doctype-public-identifier"
	ErrMissingDoctypeSystemIdentifier     ErrorCode = "missing-doctype-system-identifier"
	ErrMissingEndTagName                  ErrorCode = "missing-end-tag-name"
	ErrMissingQuoteBeforeDoctypePublicID  ErrorCode = "missing-quote-before-doctype-public-identifier"
	ErrMissingQuoteBeforeDoctypeSystemID  ErrorCode = "missing-quote-before-doctype-system-identifier"
	ErrMissingSemicolonAfterCharRef       ErrorCode = "missing-semicolon-after-character-reference"
	ErrMissingWhitespaceAfterDoctypeKW    ErrorCode = "missing-whitespace-after-doctype-keyword"
	ErrMissingWhitespaceBeforeDoctypeName ErrorCode = "missing-whitespace-before-doctype-name"
	ErrMissingWhitespaceBetweenAttributes ErrorCode = "missing-whitespace-between-attributes"
	ErrMissingWhitespaceBetweenDTIDs      ErrorCode = "missing-whitespace-between-doctype-public-and-system-identifiers"
	ErrNestedComment                      ErrorCode = "nested-comment"
	ErrNoncharacterCharacterReference     ErrorCode = "noncharacter-character-reference"
	ErrNoncharacterInInputStream          ErrorCode = "noncharacter-in-input-stream"
	// ErrNonVoidElementWithTrailingSolidus is declared with the other
	// spec-named codes but emitted by the tree construction stage: the
	// tokenizer sets the self-closing flag, and only the tree builder
	// knows whether a handler acknowledged it.
	ErrNonVoidElementWithTrailingSolidus  ErrorCode = "non-void-html-element-start-tag-with-trailing-solidus"
	ErrNullCharacterReference             ErrorCode = "null-character-reference"
	ErrSurrogateCharacterReference        ErrorCode = "surrogate-character-reference"
	ErrSurrogateInInputStream             ErrorCode = "surrogate-in-input-stream"
	ErrUnexpectedCharacterAfterDTSystemID ErrorCode = "unexpected-character-after-doctype-system-identifier"
	ErrUnexpectedCharacterInAttributeName ErrorCode = "unexpected-character-in-attribute-name"
	ErrUnexpectedCharInUnquotedAttrValue  ErrorCode = "unexpected-character-in-unquoted-attribute-value"
	ErrUnexpectedEqualsSignBeforeAttrName ErrorCode = "unexpected-equals-sign-before-attribute-name"
	ErrUnexpectedNullCharacter            ErrorCode = "unexpected-null-character"
	ErrUnexpectedQuestionMarkInsteadOfTag ErrorCode = "unexpected-question-mark-instead-of-tag-name"
	ErrUnexpectedSolidusInTag             ErrorCode = "unexpected-solidus-in-tag"
	ErrUnknownNamedCharacterReference     ErrorCode = "unknown-named-character-reference"
)

// Tree-construction-stage parse errors. The specification does not name
// these individually; it only says "this is a parse error". We give each
// corrective action a stable name so rules can match on them.
const (
	ErrUnexpectedTokenInInitialMode ErrorCode = "unexpected-token-in-initial-insertion-mode"
	ErrUnexpectedDoctype            ErrorCode = "unexpected-doctype"
	ErrUnexpectedStartTag           ErrorCode = "unexpected-start-tag"
	ErrUnexpectedEndTag             ErrorCode = "unexpected-end-tag"
	ErrUnexpectedTextInTable        ErrorCode = "unexpected-text-in-table"
	ErrUnexpectedEOFInElement       ErrorCode = "unexpected-eof-open-element"
	ErrNestedFormElement            ErrorCode = "nested-form-element"
	ErrSecondBodyStartTag           ErrorCode = "second-body-start-tag"
	ErrFosterParenting              ErrorCode = "foster-parenting"
	ErrForeignContentBreakout       ErrorCode = "foreign-content-breakout"
	ErrUnexpectedElementInHead      ErrorCode = "unexpected-element-in-head"
	ErrHTMLIntegrationMisnesting    ErrorCode = "html-integration-misnesting"
	ErrAdoptionAgencyMisnesting     ErrorCode = "adoption-agency-misnesting"
)

// ParseError records one specification violation observed while parsing.
// The parser never aborts on a parse error; consistent with the error
// tolerance the paper studies, it records the error and repairs the input.
type ParseError struct {
	Code ErrorCode
	Pos  int // byte offset in the preprocessed input
	// Detail optionally carries evidence, e.g. the offending attribute name.
	Detail string
}

func (e ParseError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("@%d: %s (%s)", e.Pos, e.Code, e.Detail)
	}
	return fmt.Sprintf("@%d: %s", e.Pos, e.Code)
}
