package core

import (
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// FuzzCheck: the checker must never fail on arbitrary UTF-8 input.
func FuzzCheck(f *testing.F) {
	seeds := []string{
		"",
		"<!DOCTYPE html><p>fine</p>",
		`<img/src=x/onerror=e><div a=1 a=2>`,
		`<form action=/a><form action=/b></form>`,
		`<table><b>x</b></table><svg><div>y</div></svg>`,
		`<base href=/x><base href=/y><meta http-equiv=refresh content=1>`,
		`<textarea><select><option>`,
		"<a target='multi\nline'>x</a><img src='u\n<b>'>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	full := NewChecker()
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := full.Check(data); err != nil && err != htmlparse.ErrNotUTF8 {
			t.Fatalf("check: %v", err)
		}
	})
}
