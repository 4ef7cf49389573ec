package lint

import (
	"go/ast"
	"go/token"
)

// SleepWait bans sleep-polling from the serving path. The WAL already
// exposes the right primitives — WaitSince long-polls a durable LSN and
// its sync.Cond broadcast wakes appenders and pollers on every
// transition — and time.Ticker covers genuinely periodic work. A bare
// time.Sleep inside a loop in internal/server, internal/proxy,
// internal/replica, internal/wal, or client burns a scheduling quantum
// per probe and adds up to half the sleep interval of avoidable latency
// to every wakeup; at millions of users that is the tail.
var SleepWait = &Analyzer{
	Name: "sleepwait",
	Doc: "report time.Sleep polling loops in non-test serving code; block on wal.WaitSince, " +
		"a sync.Cond, or a time.Ticker instead",
	Run: runSleepWait,
}

func runSleepWait(pass *Pass) {
	if !pkgIn(pass, pkgServer, pkgProxy, pkgReplica, pkgWAL, pkgClient) {
		return
	}
	sup := newSuppressor(pass)
	reported := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			flagSleeps(pass, sup, reported, body)
			return true
		})
	}
}

// flagSleeps reports time.Sleep calls lexically inside body, without
// descending into nested function literals: a goroutine launched from a
// loop that sleeps once is not the loop polling.
func flagSleeps(pass *Pass, sup *suppressor, reported map[token.Pos]bool, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeName(pass, call) == "time.Sleep" && !reported[call.Pos()] {
			reported[call.Pos()] = true
			sup.report(call.Pos(),
				"time.Sleep in a polling loop: block on the condition instead (wal.WaitSince long-poll, sync.Cond broadcast, or time.Ticker)")
		}
		return true
	})
}
