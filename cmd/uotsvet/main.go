// Command uotsvet runs the project's contract analyzers over the named
// packages (bin/uotsvet [-unused-allows] ./...); `uotsvet help` prints
// the contract docs. The same run is a tier-1 test
// (internal/analysis/uotsvet.TestTreeIsClean).
package main

import (
	"uots/internal/analysis/driver"
	"uots/internal/analysis/uotsvet"
)

func main() {
	driver.Main(uotsvet.Analyzers())
}
