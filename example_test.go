package raidrel_test

import (
	"fmt"

	"raidrel"
)

// ExampleMTTDL reproduces the paper's equation 3 worked example.
func ExampleMTTDL() {
	mttdl, err := raidrel.MTTDL(raidrel.MTTDLInput{N: 7, MTBF: 461386, MTTR: 12})
	if err != nil {
		fmt.Println(err)
		return
	}
	expected, err := raidrel.ExpectedDDFs(raidrel.MTTDLInput{N: 7, MTBF: 461386, MTTR: 12}, 87600, 1000)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("MTTDL: %.0f years\n", mttdl/raidrel.HoursPerYear)
	fmt.Printf("expected DDFs, 10 years x 1000 groups: %.3f\n", expected)
	// Output:
	// MTTDL: 36176 years
	// expected DDFs, 10 years x 1000 groups: 0.276
}

// ExampleNew runs a small reduced-mission study.
func ExampleNew() {
	params := raidrel.BaseCase()
	params.MissionHours = 8760 // one year
	model, err := raidrel.New(params)
	if err != nil {
		fmt.Println(err)
		return
	}
	result, err := model.Run(2000, 20070625)
	if err != nil {
		fmt.Println(err)
		return
	}
	count := result.DDFsPer1000GroupsAt(8760)
	fmt.Printf("first-year DDFs per 1000 groups: %.1f (MTTDL predicts 0.028)\n", count)
	fmt.Println("orders of magnitude apart:", count > 1)
	// Output:
	// first-year DDFs per 1000 groups: 12.0 (MTTDL predicts 0.028)
	// orders of magnitude apart: true
}
