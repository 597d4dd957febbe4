let certify = Analysis.Certify.exact
let certify_fast cfg p = Analysis.Certify.sorts cfg p
