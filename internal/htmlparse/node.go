package htmlparse

import "strings"

// NodeType identifies the kind of a DOM node.
type NodeType int

const (
	// DocumentNode is the root of a parsed tree.
	DocumentNode NodeType = iota
	// ElementNode is an element such as <div>.
	ElementNode
	// TextNode holds character data.
	TextNode
	// CommentNode holds a comment.
	CommentNode
	// DoctypeNode holds the document type declaration.
	DoctypeNode
)

// Namespace identifies the markup namespace an element lives in. The paper's
// HF5 rules hinge on transitions between these.
type Namespace int

const (
	// NamespaceHTML is the default HTML namespace.
	NamespaceHTML Namespace = iota
	// NamespaceSVG is entered via <svg>.
	NamespaceSVG
	// NamespaceMathML is entered via <math>.
	NamespaceMathML
)

func (ns Namespace) String() string {
	switch ns {
	case NamespaceSVG:
		return "svg"
	case NamespaceMathML:
		return "math"
	}
	return "html"
}

// Node is a node in the document tree built by the tree construction stage.
// The structure (linked siblings and parent/first/last child pointers)
// follows the conventional DOM shape.
type Node struct {
	Type      NodeType
	Data      string // tag name for elements, text for text/comment nodes
	Namespace Namespace
	Attr      []Attribute

	// PublicID and SystemID carry the doctype identifiers (valid on
	// DoctypeNode only). They feed the quirks-mode classification and the
	// html5lib-dialect tree dump.
	PublicID, SystemID string

	Parent, FirstChild, LastChild, PrevSibling, NextSibling *Node

	// Pos is the byte offset in the preprocessed input where the token
	// that created this node started.
	Pos int

	// AutoClosedAtEOF marks an element that was still on the stack of open
	// elements when the input ended; the parser closed it implicitly. The
	// DE1/DE2 rules inspect this.
	AutoClosedAtEOF bool
	// Implied marks an element the parser synthesized without a
	// corresponding start tag (e.g. <head> or <body> when omitted).
	Implied bool
	// FosterParented marks an element or text node that the parser moved
	// in front of a table (the HF4 signal).
	FosterParented bool

	// class holds an HTML element's class bits (elementClasses), set by
	// the tree builder when it creates the element; 0 on every other node.
	// It fits the padding after the bools, so Node stays 144 bytes.
	class uint8
}

// AppendChild adds c as the last child of n. c must not already have a
// parent or siblings.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("htmlparse: AppendChild called for an attached child Node")
	}
	last := n.LastChild
	if last != nil {
		last.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild = c
	c.Parent = n
	c.PrevSibling = last
}

// InsertBefore inserts c as a child of n, immediately before oldChild. If
// oldChild is nil it appends instead. c must be detached.
func (n *Node) InsertBefore(c, oldChild *Node) {
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("htmlparse: InsertBefore called for an attached child Node")
	}
	if oldChild == nil {
		n.AppendChild(c)
		return
	}
	prev := oldChild.PrevSibling
	if prev != nil {
		prev.NextSibling = c
	} else {
		n.FirstChild = c
	}
	c.PrevSibling = prev
	c.NextSibling = oldChild
	oldChild.PrevSibling = c
	c.Parent = n
}

// RemoveChild detaches c from n. It panics if c is not a child of n.
func (n *Node) RemoveChild(c *Node) {
	if c.Parent != n {
		panic("htmlparse: RemoveChild called for a non-child Node")
	}
	if n.FirstChild == c {
		n.FirstChild = c.NextSibling
	}
	if n.LastChild == c {
		n.LastChild = c.PrevSibling
	}
	if c.PrevSibling != nil {
		c.PrevSibling.NextSibling = c.NextSibling
	}
	if c.NextSibling != nil {
		c.NextSibling.PrevSibling = c.PrevSibling
	}
	c.Parent = nil
	c.PrevSibling = nil
	c.NextSibling = nil
}

// LookupAttr returns the value of the named attribute and whether it exists.
func (n *Node) LookupAttr(name string) (string, bool) {
	for i := range n.Attr {
		if n.Attr[i].Name == name {
			return n.Attr[i].Value, true
		}
	}
	return "", false
}

// IsElement reports whether n is an HTML-namespace element with the given
// tag name.
func (n *Node) IsElement(tag string) bool {
	return n.Type == ElementNode && n.Namespace == NamespaceHTML && n.Data == tag
}

// Walk visits n and all its descendants in document order. Returning false
// from f stops the walk.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// Find returns the first descendant (or n itself) for which f returns true.
func (n *Node) Find(f func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if f(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindAll returns all nodes in n's subtree for which f returns true, in
// document order.
func (n *Node) FindAll(f func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if f(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Text concatenates the text content of n's subtree.
func (n *Node) Text() string {
	var b strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			b.WriteString(m.Data)
		}
		return true
	})
	return b.String()
}

// Ancestor returns the nearest ancestor element with the given HTML tag
// name, or nil.
func (n *Node) Ancestor(tag string) *Node {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.IsElement(tag) {
			return p
		}
	}
	return nil
}
