// Package api is the one package allowed to spell wire paths as
// literals; rawpath must stay silent on every line here.
package api

const Version = "v1"

const Prefix = "/" + Version

const (
	PathQuery     = Prefix + "/query"
	PathProximity = Prefix + "/proximity"
	PathUpdate    = "/v1/update"
	PathStats     = Prefix + "/stats"
)
