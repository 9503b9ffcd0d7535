package htmlparse

// Element classification tables from the HTML Living Standard, used by the
// tree construction stage.

func newStringSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// voidElements never have content or end tags.
var voidElements = newStringSet(
	"area", "base", "br", "col", "embed", "hr", "img", "input",
	"link", "meta", "param", "source", "track", "wbr",
)

// specialElements is the spec's "special" category (13.2.4.2), which the
// in-body end-tag-anything algorithm and the adoption agency consult.
var specialElements = newStringSet(
	"address", "applet", "area", "article", "aside", "base", "basefont",
	"bgsound", "blockquote", "body", "br", "button", "caption", "center",
	"col", "colgroup", "dd", "details", "dir", "div", "dl", "dt", "embed",
	"fieldset", "figcaption", "figure", "footer", "form", "frame",
	"frameset", "h1", "h2", "h3", "h4", "h5", "h6", "head", "header",
	"hgroup", "hr", "html", "iframe", "img", "input", "keygen", "li",
	"link", "listing", "main", "marquee", "menu", "meta", "nav", "noembed",
	"noframes", "noscript", "object", "ol", "p", "param", "plaintext",
	"pre", "script", "search", "section", "select", "source", "style",
	"summary", "table", "tbody", "td", "template", "textarea", "tfoot",
	"th", "thead", "title", "tr", "track", "ul", "wbr", "xmp",
)

// headElements are the elements the spec allows inside <head>.
var headElements = newStringSet(
	"base", "basefont", "bgsound", "link", "meta", "noframes", "noscript",
	"script", "style", "template", "title",
)

// impliedEndTags lists the elements whose end tags may be generated
// implicitly ("generate implied end tags").
var impliedEndTags = newStringSet(
	"dd", "dt", "li", "optgroup", "option", "p", "rb", "rp", "rt", "rtc",
)

// allowedOpenAtEOF lists the elements the spec permits to remain on the
// stack of open elements at end-of-file without a parse error.
var allowedOpenAtEOF = newStringSet(
	"dd", "dt", "li", "optgroup", "option", "p", "rb", "rp", "rt", "rtc",
	"tbody", "td", "tfoot", "th", "thead", "tr", "body", "html",
)

// defaultScopeStop terminates "has an element in scope" searches.
var defaultScopeStop = newStringSet(
	"applet", "caption", "html", "table", "td", "th", "marquee", "object",
	"template",
	// Foreign scope stops (MathML text integration points and SVG HTML
	// integration points) are handled by namespace in elementInScope.
)

// listItemScopeExtra extends the default scope for li matching.
var listItemScopeExtra = newStringSet("ol", "ul")

// buttonScopeExtra extends the default scope for p matching.
var buttonScopeExtra = newStringSet("button")

// tableScopeStop is the stop set for "has an element in table scope".
var tableScopeStop = newStringSet("html", "table", "template")

// Element classes: the name sets above that the tree builder tests on
// stack nodes, as bits. The tree builder sets an HTML element's class once,
// when it creates the element, so a scope walk or a special-category test
// reads a bit instead of hashing the tag name. Every other node (foreign
// elements included) has class 0.
const (
	classSpecial        uint8 = 1 << iota // specialElements
	classScopeStop                        // defaultScopeStop
	classListItemScope                    // listItemScopeExtra
	classButtonScope                      // buttonScopeExtra
	classTableScopeStop                   // tableScopeStop
	classImpliedEnd                       // impliedEndTags
)

// elementClasses maps an HTML tag name to its class bits; a name in none
// of the sets is absent (class 0).
var elementClasses = func() map[string]uint8 {
	m := make(map[string]uint8)
	for _, c := range [...]struct {
		set  map[string]bool
		bits uint8
	}{
		{specialElements, classSpecial},
		{defaultScopeStop, classScopeStop},
		{listItemScopeExtra, classListItemScope},
		{buttonScopeExtra, classButtonScope},
		{tableScopeStop, classTableScopeStop},
		{impliedEndTags, classImpliedEnd},
	} {
		for name := range c.set {
			m[name] |= c.bits
		}
	}
	return m
}()

// tableContextTags is used when clearing the stack back to table context.
var tableContextTags = newStringSet("table", "template", "html")

// tableBodyContextTags clears back to a table body context.
var tableBodyContextTags = newStringSet("tbody", "tfoot", "thead", "template", "html")

// tableRowContextTags clears back to a table row context.
var tableRowContextTags = newStringSet("tr", "template", "html")

// tableAllowedChildren is content legal directly inside table-related
// insertion modes; anything else foster-parents (the HF4 signal).
var tableAllowedChildren = newStringSet(
	"caption", "colgroup", "col", "tbody", "tfoot", "thead", "tr", "td",
	"th", "style", "script", "template", "form", "input",
)

// breakoutElements, when seen in foreign content, force the parser back to
// the HTML namespace (spec 13.2.6.5) — the HF5_2/HF5_3 signal.
var breakoutElements = newStringSet(
	"b", "big", "blockquote", "body", "br", "center", "code", "dd", "div",
	"dl", "dt", "em", "embed", "h1", "h2", "h3", "h4", "h5", "h6", "head",
	"hr", "i", "img", "li", "listing", "menu", "meta", "nobr", "ol", "p",
	"pre", "ruby", "s", "small", "span", "strong", "strike", "sub", "sup",
	"table", "tt", "u", "ul", "var",
)

// svgOnlyElements exist only in the SVG vocabulary. Seeing one while in the
// HTML namespace indicates detached foreign markup (the HF5_1 signal).
// Elements that double as HTML tags (a, title, style, script, font, image)
// are excluded.
var svgOnlyElements = newStringSet(
	"animate", "animatemotion", "animatetransform", "circle", "clippath",
	"defs", "desc", "ellipse", "feblend", "fecolormatrix",
	"fecomponenttransfer", "fecomposite", "feconvolvematrix",
	"fediffuselighting", "fedisplacementmap", "fedistantlight",
	"fedropshadow", "feflood", "fefunca", "fefuncb", "fefuncg", "fefuncr",
	"fegaussianblur", "feimage", "femerge", "femergenode", "femorphology",
	"feoffset", "fepointlight", "fespecularlighting", "fespotlight",
	"fetile", "feturbulence", "filter", "foreignobject", "g", "line",
	"lineargradient", "marker", "mask", "metadata", "mpath", "path",
	"pattern", "polygon", "polyline", "radialgradient", "rect", "set",
	"stop", "switch", "symbol", "text", "textpath", "tspan", "use", "view",
)

// mathmlOnlyElements exist only in the MathML vocabulary.
var mathmlOnlyElements = newStringSet(
	"maction", "maligngroup", "malignmark", "menclose", "merror",
	"mfenced", "mfrac", "mglyph", "mi", "mlabeledtr", "mlongdiv",
	"mmultiscripts", "mn", "mo", "mover", "mpadded", "mphantom", "mroot",
	"mrow", "ms", "mscarries", "mscarry", "msgroup", "msline", "mspace",
	"msqrt", "msrow", "mstack", "mstyle", "msub", "msubsup", "msup",
	"mtable", "mtd", "mtext", "mtr", "munder", "munderover", "semantics",
	"annotation", "annotation-xml",
)

// svgTagAdjustments restores the canonical mixed-case SVG tag names that
// the tokenizer lowercased (spec "adjust SVG tag names").
var svgTagAdjustments = map[string]string{
	"altglyph":            "altGlyph",
	"altglyphdef":         "altGlyphDef",
	"altglyphitem":        "altGlyphItem",
	"animatecolor":        "animateColor",
	"animatemotion":       "animateMotion",
	"animatetransform":    "animateTransform",
	"clippath":            "clipPath",
	"feblend":             "feBlend",
	"fecolormatrix":       "feColorMatrix",
	"fecomponenttransfer": "feComponentTransfer",
	"fecomposite":         "feComposite",
	"feconvolvematrix":    "feConvolveMatrix",
	"fediffuselighting":   "feDiffuseLighting",
	"fedisplacementmap":   "feDisplacementMap",
	"fedistantlight":      "feDistantLight",
	"fedropshadow":        "feDropShadow",
	"feflood":             "feFlood",
	"fefunca":             "feFuncA",
	"fefuncb":             "feFuncB",
	"fefuncg":             "feFuncG",
	"fefuncr":             "feFuncR",
	"fegaussianblur":      "feGaussianBlur",
	"feimage":             "feImage",
	"femerge":             "feMerge",
	"femergenode":         "feMergeNode",
	"femorphology":        "feMorphology",
	"feoffset":            "feOffset",
	"fepointlight":        "fePointLight",
	"fespecularlighting":  "feSpecularLighting",
	"fespotlight":         "feSpotLight",
	"fetile":              "feTile",
	"feturbulence":        "feTurbulence",
	"foreignobject":       "foreignObject",
	"glyphref":            "glyphRef",
	"lineargradient":      "linearGradient",
	"radialgradient":      "radialGradient",
	"textpath":            "textPath",
}

// adjustAttrNames renames t's attributes through adjust (the SVG and
// MathML case adjustments). The attribute array is shared with the
// recorded token trace, which must keep the tokenizer's names, so it is
// copied before the first rename — and only when a rename applies.
func adjustAttrNames(t *Token, adjust func(name string) (string, bool)) {
	copied := false
	for i := range t.Attr {
		adj, ok := adjust(t.Attr[i].Name)
		if !ok {
			continue
		}
		if !copied {
			t.Attr = append([]Attribute(nil), t.Attr...)
			copied = true
		}
		t.Attr[i].Name = adj
	}
}

// mathMLAttrName is the spec's "adjust MathML attributes" table.
func mathMLAttrName(name string) (string, bool) {
	if name == "definitionurl" {
		return "definitionURL", true
	}
	return "", false
}

// svgAttrName is the spec's "adjust SVG attributes" table.
func svgAttrName(name string) (string, bool) {
	adj, ok := svgAttrAdjustments[name]
	return adj, ok
}

// svgAttrAdjustments restores the canonical mixed-case SVG attribute
// names (spec "adjust SVG attributes").
var svgAttrAdjustments = map[string]string{
	"attributename":       "attributeName",
	"attributetype":       "attributeType",
	"basefrequency":       "baseFrequency",
	"baseprofile":         "baseProfile",
	"calcmode":            "calcMode",
	"clippathunits":       "clipPathUnits",
	"diffuseconstant":     "diffuseConstant",
	"edgemode":            "edgeMode",
	"filterunits":         "filterUnits",
	"glyphref":            "glyphRef",
	"gradienttransform":   "gradientTransform",
	"gradientunits":       "gradientUnits",
	"kernelmatrix":        "kernelMatrix",
	"kernelunitlength":    "kernelUnitLength",
	"keypoints":           "keyPoints",
	"keysplines":          "keySplines",
	"keytimes":            "keyTimes",
	"lengthadjust":        "lengthAdjust",
	"limitingconeangle":   "limitingConeAngle",
	"markerheight":        "markerHeight",
	"markerunits":         "markerUnits",
	"markerwidth":         "markerWidth",
	"maskcontentunits":    "maskContentUnits",
	"maskunits":           "maskUnits",
	"numoctaves":          "numOctaves",
	"pathlength":          "pathLength",
	"patterncontentunits": "patternContentUnits",
	"patterntransform":    "patternTransform",
	"patternunits":        "patternUnits",
	"pointsatx":           "pointsAtX",
	"pointsaty":           "pointsAtY",
	"pointsatz":           "pointsAtZ",
	"preservealpha":       "preserveAlpha",
	"preserveaspectratio": "preserveAspectRatio",
	"primitiveunits":      "primitiveUnits",
	"refx":                "refX",
	"refy":                "refY",
	"repeatcount":         "repeatCount",
	"repeatdur":           "repeatDur",
	"requiredextensions":  "requiredExtensions",
	"requiredfeatures":    "requiredFeatures",
	"specularconstant":    "specularConstant",
	"specularexponent":    "specularExponent",
	"spreadmethod":        "spreadMethod",
	"startoffset":         "startOffset",
	"stddeviation":        "stdDeviation",
	"stitchtiles":         "stitchTiles",
	"surfacescale":        "surfaceScale",
	"systemlanguage":      "systemLanguage",
	"tablevalues":         "tableValues",
	"targetx":             "targetX",
	"targety":             "targetY",
	"textlength":          "textLength",
	"viewbox":             "viewBox",
	"viewtarget":          "viewTarget",
	"xchannelselector":    "xChannelSelector",
	"ychannelselector":    "yChannelSelector",
	"zoomandpan":          "zoomAndPan",
}

// mathMLTextIntegration are the MathML text integration points: their
// children are parsed with HTML rules (except for mglyph/malignmark).
var mathMLTextIntegration = newStringSet("mi", "mo", "mn", "ms", "mtext")

// svgHTMLIntegration are the SVG HTML integration points.
var svgHTMLIntegration = newStringSet("foreignObject", "desc", "title")
