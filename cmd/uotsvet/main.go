// Command uotsvet runs the project's contract analyzers over the named
// packages (bin/uotsvet [-json] [-unused-allows] ./...); `uotsvet help`
// prints the contract docs.
package main

import (
	"uots/internal/analysis/driver"
	"uots/internal/analysis/uotsvet"
)

func main() {
	driver.Main(uotsvet.Analyzers())
}
