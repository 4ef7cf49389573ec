// Package main exercises rawpath: literal wire paths outside repro/api.
package main

import "repro/api"

var paths = []string{
	"/v1/query",    // want `hardcoded versioned path "/v1/query"`
	api.PathQuery,  // a constant reference, not a literal: in-bounds
	"/query",       // unversioned: no such endpoint, nothing to police
	"/v2/whatever", // a future version this suite does not own yet
	"/unrelated",
	"query",
}

var base = "http://localhost:8080" + api.PathUpdate

var fullURL = "http://localhost:8080/v1/update" // want `hardcoded versioned path`

var prefixOnly = "/v1" // want `hardcoded versioned path "/v1"`

type tagged struct {
	// Struct tags and import paths are never path literals.
	Field string `json:"/v1/query"`
}

func main() {
	_ = paths
	_ = base
	_ = fullURL
	_ = prefixOnly
}
